// Wire registration for test actor types. A call that crosses a node
// boundary (every client call, and actor-to-actor calls between silos) is a
// serialized frame, so its method needs a MethodRegistry entry; tests
// register the methods they call that way:
//
//   RegisterWire<CounterActor>(&CounterActor::Add, "Add",
//                              &CounterActor::Value, "Value");

#ifndef AODB_TESTS_WIRE_METHODS_H_
#define AODB_TESTS_WIRE_METHODS_H_

#include <string>

#include <gtest/gtest.h>

#include "actor/method_registry.h"

namespace aodb {

inline void RegisterWireAs(const std::string&) {}

/// Registers each (method, name) pair under actor type `type`; a registry
/// error fails the current test. Idempotent, like MethodRegistry::Register.
template <typename M, typename... Rest>
void RegisterWireAs(const std::string& type, M method, const char* name,
                    Rest... rest) {
  Status st = MethodRegistry::Global().Register(type, method, name);
  EXPECT_TRUE(st.ok()) << st.ToString();
  RegisterWireAs(type, rest...);
}

/// RegisterWireAs under T::kTypeName.
template <typename T, typename... Pairs>
void RegisterWire(Pairs... pairs) {
  RegisterWireAs(T::kTypeName, pairs...);
}

}  // namespace aodb

#endif  // AODB_TESTS_WIRE_METHODS_H_
