// Wire-method registration for the aodb core actors (registry, index) and
// for the TransactionalActor protocol messages. Platforms call these from
// their RegisterTypes: cross-silo transaction traffic — prepare / commit /
// abort votes and single-actor ops — travels the serialized wire lane, and
// a remote call of an unregistered method fails.

#ifndef AODB_AODB_WIRE_H_
#define AODB_AODB_WIRE_H_

#include <string>

#include "common/status.h"

namespace aodb {

/// Registers the wire methods of RegistryActor and IndexActor. Idempotent.
Status RegisterAodbCoreWireMethods();

/// Registers the TransactionalActor protocol methods (TxnPrepare, TxnCommit,
/// TxnAbort, ExecuteOp, TxnLocked) under the given concrete actor type name.
/// The registry dispatches by (type name, method id), so each transactional
/// actor type must register the shared base-class methods under its own
/// name. Idempotent.
Status RegisterTransactionalWireMethods(const std::string& type_name);

}  // namespace aodb

#endif  // AODB_AODB_WIRE_H_
