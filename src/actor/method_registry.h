// Per-actor-type registry of wire-invokable methods — the receiving half of
// the serialized invocation boundary (the moral equivalent of Orleans'
// generated grain invokers).
//
// Registration happens once per process, keyed by (actor type name, method
// id). The method id is a stable FNV-1a hash of the registered method name;
// see DESIGN.md "Invocation boundary & wire format" for the stability rules.
// The send side resolves a member-function pointer to its WireMethodInfo via
// per-signature tables; the receive side resolves (type, id) to an invoker
// that decodes the argument tuple, runs the method on the activation, and
// encodes the Result<T> reply.

#ifndef AODB_ACTOR_METHOD_REGISTRY_H_
#define AODB_ACTOR_METHOD_REGISTRY_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "actor/actor.h"
#include "actor/future.h"
#include "common/wire.h"

namespace aodb {

/// Unit results travel as zero bytes.
template <>
struct WireCodec<Unit> {
  static void Encode(BufWriter*, const Unit&) {}
  static Status Decode(BufReader*, Unit*) { return Status::OK(); }
};

/// Identity of one registered wire method. Stable for the process lifetime;
/// envelopes hold pointers into the registry.
struct WireMethodInfo {
  std::string name;
  uint64_t id = 0;
  /// Declared safe to execute more than once (reads, set-style writes).
  /// In-flight failover re-submits only idempotent calls after a silo
  /// eviction; everything else completes with Unavailable.
  bool idempotent = false;
  /// Codec self-check: round-trips a default argument tuple and result and
  /// verifies byte-exact re-encoding. Run by tests over every registration.
  std::function<Status()> self_check;
};

/// Receive-side reply hook: takes the encoded Result<T> payload (unsealed).
/// Empty for fire-and-forget tells.
using WireReplyFn = std::function<void(std::string)>;

/// Decodes arguments from the reader, invokes the method on the activation,
/// and (if a reply hook is present) encodes the result.
using WireInvoker =
    std::function<void(ActorBase&, BufReader&, const WireReplyFn&)>;

struct WireMethodEntry {
  WireMethodInfo info;
  WireInvoker invoke;
};

namespace internal {

/// Maps an actor method's return type R to the value type of the Future
/// returned by Call (shared with ActorRef).
template <typename R>
struct CallResult {
  using type = R;
};
template <>
struct CallResult<void> {
  using type = Unit;
};
template <typename U>
struct CallResult<Future<U>> {
  using type = U;
};

/// Guards all per-signature send-side tables (defined in the .cc).
std::shared_mutex& SigTableMutex();

/// Send-side lookup table for one member-function-pointer signature:
/// member pointers cannot be hashed, so each signature gets its own small
/// linear table (a handful of methods per signature in practice).
template <typename R, typename C, typename... MArgs>
struct SigTable {
  using MPtr = R (C::*)(MArgs...);
  struct Row {
    MPtr ptr;
    const WireMethodInfo* info;
  };
  static std::vector<Row>& Rows() {
    static std::vector<Row> rows;
    return rows;
  }
};

/// Codec self-check for one method signature: encode a default argument
/// tuple, decode it, re-encode, and require byte equality; same for a
/// default and an error Result<RT>.
template <typename RT, typename... DArgs>
Status WireSelfCheck(const std::string& name) {
  std::tuple<DArgs...> args{};
  BufWriter w;
  WireEncodeTuple(&w, args);
  std::string encoded = w.Release();
  std::tuple<DArgs...> decoded{};
  BufReader r(encoded);
  Status st = WireDecodeTuple(&r, &decoded);
  if (!st.ok()) {
    return Status::Internal(name + ": arg decode failed: " + st.ToString());
  }
  if (!r.AtEnd()) return Status::Internal(name + ": trailing arg bytes");
  BufWriter w2;
  WireEncodeTuple(&w2, decoded);
  if (w2.data() != encoded) {
    return Status::Internal(name + ": arg re-encode mismatch");
  }
  BufWriter rw;
  WireEncodeResult<RT>(&rw, Result<RT>(RT{}));
  std::string rbuf = rw.Release();
  BufReader rr(rbuf);
  Result<RT> rres = WireDecodeResult<RT>(&rr);
  if (!rres.ok() || !rr.AtEnd()) {
    return Status::Internal(name + ": result round-trip failed");
  }
  BufWriter ew;
  WireEncodeResult<RT>(&ew, Result<RT>::FromError(Status::Aborted("probe")));
  BufReader er(ew.data());
  Result<RT> eres = WireDecodeResult<RT>(&er);
  if (eres.ok() || eres.status().code() != StatusCode::kAborted) {
    return Status::Internal(name + ": error result round-trip failed");
  }
  return Status::OK();
}

/// Builds the receive-side invoker for one method.
template <typename R, typename C, typename... MArgs>
WireInvoker MakeWireInvoker(R (C::*method)(MArgs...)) {
  using RT = typename CallResult<R>::type;
  return [method](ActorBase& base, BufReader& r, const WireReplyFn& reply) {
    std::tuple<std::decay_t<MArgs>...> args{};
    Status st = WireDecodeTuple(&r, &args);
    if (st.ok() && !r.AtEnd()) {
      st = Status::Corruption("trailing bytes after wire arguments");
    }
    if (!st.ok()) {
      if (reply) {
        BufWriter w;
        WireEncodeResult<RT>(
            &w, Result<RT>::FromError(
                    st.IsCorruption() ? st : Status::Corruption(st.ToString())));
        reply(w.Release());
      }
      return;
    }
    C& obj = static_cast<C&>(base);
    if constexpr (IsFuture<R>::value) {
      Future<RT> f = std::apply(
          [&](auto&... a) { return (obj.*method)(a...); }, args);
      if (reply) {
        f.OnReady([reply](Result<RT>&& res) {
          BufWriter w;
          WireEncodeResult<RT>(&w, res);
          reply(w.Release());
        });
      }
    } else if constexpr (std::is_void_v<R>) {
      std::apply([&](auto&... a) { (obj.*method)(a...); }, args);
      if (reply) {
        BufWriter w;
        WireEncodeResult<RT>(&w, Result<RT>(Unit{}));
        reply(w.Release());
      }
    } else {
      R value = std::apply(
          [&](auto&... a) { return (obj.*method)(a...); }, args);
      if (reply) {
        BufWriter w;
        WireEncodeResult<RT>(&w, Result<RT>(std::move(value)));
        reply(w.Release());
      }
    }
  };
}

}  // namespace internal

/// Process-wide registry of wire-invokable actor methods.
class MethodRegistry {
 public:
  static MethodRegistry& Global();

  /// Stable method id: FNV-1a over the registered method name.
  static uint64_t MethodId(const std::string& method_name);

  /// Registers `method` of actor type `type_name` under `method_name`.
  /// Idempotent for repeated identical registrations; fails on a method-id
  /// collision within the type. The method's full signature (arguments and
  /// result) must be wire-encodable — enforced at compile time. Pass
  /// `idempotent = true` to declare the method safe to run more than once
  /// (enables transparent re-submission by in-flight failover).
  template <typename R, typename C, typename... MArgs>
  Status Register(const std::string& type_name, R (C::*method)(MArgs...),
                  const std::string& method_name, bool idempotent = false) {
    using RT = typename internal::CallResult<R>::type;
    static_assert(WireSupported<RT, std::decay_t<MArgs>...>::value,
                  "method signature is not wire-encodable; add a WireCodec "
                  "specialization (or Encode/Decode members) for every "
                  "argument and the result type");
    auto entry = std::make_unique<WireMethodEntry>();
    entry->info.name = method_name;
    entry->info.id = MethodId(method_name);
    entry->info.idempotent = idempotent;
    entry->info.self_check = [method_name] {
      return internal::WireSelfCheck<RT, std::decay_t<MArgs>...>(method_name);
    };
    entry->invoke = internal::MakeWireInvoker<R, C, MArgs...>(method);
    const WireMethodEntry* installed = nullptr;
    AODB_RETURN_NOT_OK(AddEntry(type_name, std::move(entry), &installed));
    std::unique_lock<std::shared_mutex> lock(internal::SigTableMutex());
    auto& rows = internal::SigTable<R, C, MArgs...>::Rows();
    for (const auto& row : rows) {
      if (row.ptr == method) return Status::OK();
    }
    rows.push_back({method, &installed->info});
    return Status::OK();
  }

  /// Registers a method of ActorBase itself, which every actor type answers
  /// (the runtime registers ReceiveReminder this way). FindEntry falls back
  /// to these for any type; MethodCount does not count them, so
  /// Cluster::CheckWireRegistry still flags a type with no methods of its
  /// own. Idempotent.
  template <typename R, typename... MArgs>
  Status RegisterForAllTypes(R (ActorBase::*method)(MArgs...),
                             const std::string& method_name) {
    return Register(kAllTypes, method, method_name);
  }

  /// Send-side lookup: the registration for a member-function pointer, or
  /// nullptr if the method was never registered (it can then only be
  /// called on the caller's own silo).
  template <typename R, typename C, typename... MArgs>
  const WireMethodInfo* Find(R (C::*method)(MArgs...)) const {
    std::shared_lock<std::shared_mutex> lock(internal::SigTableMutex());
    for (const auto& row : internal::SigTable<R, C, MArgs...>::Rows()) {
      if (row.ptr == method) return row.info;
    }
    return nullptr;
  }

  /// Receive-side lookup (a type's own methods, then the ones registered
  /// for all types), or nullptr.
  const WireMethodEntry* FindEntry(const std::string& type_name,
                                   uint64_t method_id) const;

  /// Number of methods registered for a type, not counting the ones
  /// registered for all types (0 for unknown types).
  size_t MethodCount(const std::string& type_name) const;

  /// Runs every registered method's codec self-check; returns the first
  /// failure, naming the offending method.
  Status SelfCheckAll() const;

  /// Total registrations across all types.
  size_t TotalMethods() const;

 private:
  /// Registry key of RegisterForAllTypes entries (no actor type is named
  /// by the empty string).
  static constexpr char kAllTypes[] = "";

  Status AddEntry(const std::string& type_name,
                  std::unique_ptr<WireMethodEntry> entry,
                  const WireMethodEntry** installed);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string,
                     std::unordered_map<uint64_t,
                                        std::unique_ptr<WireMethodEntry>>>
      types_;
};

/// Decodes a sealed wire reply frame into the caller's typed result.
template <typename RT>
Result<RT> DecodeWireReply(Result<std::string>&& frame) {
  if (!frame.ok()) return Result<RT>::FromError(frame.status());
  std::string_view payload;
  Status st = WireOpen(frame.value(), &payload);
  if (!st.ok()) return Result<RT>::FromError(st);
  BufReader r(payload);
  Result<RT> res = WireDecodeResult<RT>(&r);
  if (res.ok() && !r.AtEnd()) {
    return Result<RT>::FromError(
        Status::Corruption("trailing bytes in wire reply"));
  }
  return res;
}

}  // namespace aodb

#endif  // AODB_ACTOR_METHOD_REGISTRY_H_
