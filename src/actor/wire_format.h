// On-the-wire encoding of cross-silo invocations: a request frame carries
// (target actor, principal, method id, simulated cost, encoded arguments),
// a reply frame carries an encoded Result<T>. Both are sealed with a CRC32C
// trailer (common/wire.h), so corrupted frames decode to Status::Corruption.

#ifndef AODB_ACTOR_WIRE_FORMAT_H_
#define AODB_ACTOR_WIRE_FORMAT_H_

#include <string>
#include <string_view>

#include "actor/actor_id.h"
#include "common/clock.h"
#include "common/status.h"

namespace aodb {

/// Decoded header + argument payload of one cross-silo invocation.
struct WireRequest {
  ActorId target;
  Principal principal;
  uint64_t method_id = 0;
  Micros cost_us = 0;
  /// Absolute call deadline on the cluster clock (0 = none); propagated so
  /// the receiving silo can drop expired work before dispatch.
  Micros deadline_us = 0;
  /// Shed class under overload (MessagePriority as its underlying integer;
  /// out-of-range values clamp to the highest class rather than failing the
  /// frame). Propagated because the load shedder runs on the RECEIVING
  /// silo.
  uint8_t priority = 1;
  /// Trace context of the caller's active span (all zero when the request is
  /// untraced). Varint-encoded: cluster-local counter ids cost ~1-3 bytes
  /// each, and an untraced request pays 3 zero bytes.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool trace_sampled = false;
  std::string args;  ///< WireEncodeTuple of the decayed argument pack.
};

/// Encodes and seals a request frame. The frame's size is the byte count
/// the network model charges for the hop.
std::string WireEncodeRequest(const WireRequest& req);

/// Verifies the seal and decodes the header + args. Corrupted or truncated
/// frames return Status::Corruption; `out` may hold partially decoded
/// fields, which the caller must discard.
Status WireDecodeRequest(std::string_view frame, WireRequest* out);

/// Seals an encoded Result<T> payload into a reply frame.
std::string WireEncodeReply(std::string result_payload);

}  // namespace aodb

#endif  // AODB_ACTOR_WIRE_FORMAT_H_
