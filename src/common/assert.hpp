// Assertion macros used throughout Tahoe-TP.
//
// TAHOE_REQUIRE is an always-on precondition check that throws
// std::logic_error so that contract violations are testable with gtest
// (EXPECT_THROW) instead of aborting the process. TAHOE_ASSERT is the
// internal-invariant flavour; it is also always on because this library's
// correctness claims (placement never exceeds DRAM capacity, migrations
// respect dependences, ...) are part of the reproduction's deliverables
// and the checks are cheap relative to simulated work.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace tahoe {

/// Error thrown on contract violations (preconditions and invariants).
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what)
      : ContractError(what, what) {}
  ContractError(const std::string& what, const std::string& message)
      : std::logic_error(what), message_(message) {}

  /// The caller's message alone, without the failed expression and source
  /// location what() adds: the text for a user-facing usage error.
  const char* message() const noexcept { return message_.what(); }

 private:
  std::logic_error message_;  // a copy-safe string, like what()'s
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractError(os.str(), msg.empty() ? os.str() : msg);
}
}  // namespace detail

}  // namespace tahoe

#define TAHOE_REQUIRE(expr, msg)                                            \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::tahoe::detail::contract_fail("precondition", #expr, __FILE__,       \
                                     __LINE__, (msg));                      \
    }                                                                       \
  } while (false)

#define TAHOE_ASSERT(expr, msg)                                             \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::tahoe::detail::contract_fail("invariant", #expr, __FILE__,          \
                                     __LINE__, (msg));                      \
    }                                                                       \
  } while (false)

#define TAHOE_UNREACHABLE(msg)                                              \
  ::tahoe::detail::contract_fail("unreachable", "false", __FILE__,          \
                                 __LINE__, (msg))
