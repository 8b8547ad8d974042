/// \file expected.hpp
/// \brief `Expected<T, FlowError>`: the flow-wide structured error channel.
///
/// The flow (Alg. 1) chains six subsystems; before this header every mid-flow
/// failure was a PPACD_CHECK (abort in checked builds, log-and-corrupt in
/// release). `Expected` replaces those fatal paths with a value-or-error sum
/// type so `flow::try_run` can return a structured `FlowError` that the CLI
/// prints, the JSON run report serializes, and callers can recover from.
///
/// `FlowError::code` uses the same stable kebab-case convention as the
/// src/check violation codes (e.g. "sta-arrival-timeout", "alloc-failure");
/// DESIGN.md §12 lists every code the flow can produce. `site` names the
/// fault site (fault.hpp) or subsystem that raised the error.
///
/// A function that returns `Expected` is named `try_*`, so the
/// `dropped-expected` and `naked-value` rules of tools/lint_contracts.py see
/// every call.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "util/assert.hpp"

namespace ppacd::fault {

/// One structured flow error. Codes are stable kebab-case identifiers tests
/// and dashboards key on; messages are free-form human context.
struct FlowError {
  std::string code;     ///< stable kebab-case id, e.g. "route-maze-failed"
  std::string site;     ///< fault site / subsystem, e.g. "route.maze"
  std::string message;  ///< human-readable detail

  friend bool operator==(const FlowError& a, const FlowError& b) {
    return a.code == b.code && a.site == b.site && a.message == b.message;
  }
};

/// Wrapper distinguishing the error alternative in Expected's constructor
/// overload set (mirrors std::unexpected).
template <typename E>
class Unexpected {
 public:
  explicit Unexpected(E error) : error_(std::move(error)) {}
  const E& error() const& { return error_; }
  E&& error() && { return std::move(error_); }

 private:
  E error_;
};

/// Builds an Unexpected<FlowError> in one call:
///   return fault::err("sta-arrival-failed", "sta.arrival", "injected");
inline Unexpected<FlowError> err(std::string_view code, std::string_view site,
                                 std::string_view message = {}) {
  return Unexpected<FlowError>(
      FlowError{std::string(code), std::string(site), std::string(message)});
}

/// Value-or-error sum type. Holds exactly one of T or E; the error
/// alternative is reachable only through Unexpected so `Expected<int>(3)`
/// and `Expected<int>(err(...))` never collide.
template <typename T, typename E = FlowError>
class [[nodiscard]] Expected {
 public:
  using value_type = T;
  using error_type = E;

  Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Expected(Unexpected<E> unexpected)
      : state_(std::in_place_index<1>, std::move(unexpected).error()) {}

  bool has_value() const { return state_.index() == 0; }
  explicit operator bool() const { return has_value(); }

  /// Precondition: has_value(). Checked: a violated precondition aborts in
  /// checked builds and throws std::bad_variant_access in release (never UB).
  T& value() & {
    PPACD_CHECK(has_value(), "Expected::value() on error: " << error().code);
    return std::get<0>(state_);
  }
  const T& value() const& {
    PPACD_CHECK(has_value(), "Expected::value() on error: " << error().code);
    return std::get<0>(state_);
  }
  T&& value() && {
    PPACD_CHECK(has_value(), "Expected::value() on error: " << error().code);
    return std::get<0>(std::move(state_));
  }

  /// Precondition: !has_value() (same checking policy as value()).
  const E& error() const& {
    PPACD_DCHECK(!has_value(), "Expected::error() on value");
    return std::get<1>(state_);
  }
  E&& error() && {
    PPACD_DCHECK(!has_value(), "Expected::error() on value");
    return std::get<1>(std::move(state_));
  }

  Expected(const Expected&) = default;
  Expected(Expected&&) = default;
  Expected& operator=(const Expected&) = default;
  Expected& operator=(Expected&&) = default;

 private:
  std::variant<T, E> state_;
};

/// Expected<void>: success carries no value.
template <typename E>
class [[nodiscard]] Expected<void, E> {
 public:
  using value_type = void;
  using error_type = E;

  Expected() = default;
  Expected(Unexpected<E> unexpected) : error_(std::move(unexpected).error()) {}

  bool has_value() const { return !error_.has_value(); }
  explicit operator bool() const { return has_value(); }

  const E& error() const& {
    PPACD_DCHECK(!has_value(), "Expected<void>::error() on value");
    return *error_;
  }

 private:
  std::optional<E> error_;
};

}  // namespace ppacd::fault
