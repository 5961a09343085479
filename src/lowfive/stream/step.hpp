#pragma once

/// Step-versioned streaming transport — core value types.
///
/// A *stream* is a named sequence of immutable file snapshots ("steps"):
/// the producer publishes step 0, 1, 2, … of a base file name into a
/// bounded staging window and consumers drain them asynchronously at
/// their own rate (ADIOS2-style begin_step/end_step; see DESIGN.md
/// § Streaming transport). This header holds the types shared by the
/// window state machine, the VOL wire protocol, and the user-facing
/// Writer/Reader: the typed step identifier, the backpressure policy,
/// the per-stream configuration, and the versioned-name encoding that
/// maps a (stream, step) pair onto the existing file namespace.

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace lowfive::stream {

/// A step version. Deliberately not a raw integer: all step arithmetic
/// (successor, ordering, the none/first distinction) lives here, so the
/// transport cannot mix step versions with ranks, counts, or request ids
/// (scripts/lint.py enforces that stream-facing headers never expose raw
/// integer step indices). Default-constructed = "none" — it orders before
/// every valid step, so "resume from the beginning" is StepId{}.next().
class StepId {
public:
    constexpr StepId() = default; ///< none (orders before every valid step)
    constexpr explicit StepId(std::uint64_t index) : raw_(index + 1) {}

    static constexpr StepId first() { return StepId(0); }

    constexpr bool valid() const { return raw_ != 0; }

    /// The zero-based step index; only meaningful when valid().
    constexpr std::uint64_t value() const { return raw_ - 1; }

    /// The successor step ("none".next() is the first step).
    constexpr StepId next() const { return valid() ? StepId(value() + 1) : first(); }

    friend constexpr auto operator<=>(StepId a, StepId b) = default;

private:
    std::uint64_t raw_ = 0; ///< value() + 1; 0 = none
};

/// What happens when a publish finds the staging window full.
enum class StepPolicy : std::uint8_t {
    Block,      ///< producer waits for a consumed step (honors deadlines)
    Drop,       ///< oldest unheld step is evicted; the producer never waits
    LatestOnly, ///< window of 1: consumers always jump to the newest step
};

/// Parse "block" | "drop" | "latest_only"; nullopt on anything else.
std::optional<StepPolicy> parse_policy(const std::string& s);
const char*               to_string(StepPolicy p);

/// Per-stream knobs, registered on the producer's vol with
/// DistMetadataVol::set_stream and resolved when its Writer is built;
/// consumers follow the producer's window.
struct StreamConfig {
    std::size_t window = 4;                 ///< staging window (steps)
    StepPolicy  policy = StepPolicy::Block; ///< full-window behavior
    /// Block policy only: how long one publish may wait for window space
    /// before throwing TimeoutError; <= 0 defers to the communicator's
    /// effective deadline (with_deadline / L5_TIMEOUT_MS).
    std::int64_t timeout_ms = 0;

    /// Enforce the policy invariants: latest_only forces window 1, and
    /// every window is at least 1.
    StreamConfig normalized() const;
};

/// Versioned file names: step `s` of stream "sim.h5" is stored under the
/// internal name "sim.h5<US>s" (US = 0x1f, a character no portable file
/// name contains, so versioned names can never collide with user files).
/// Pattern matching (serve/consume routes, memory/passthru/zerocopy
/// rules) is always done against the *base* name.
std::string step_name(const std::string& base, StepId step);

/// Split a versioned name into (base, step); nullopt for ordinary names.
std::optional<std::pair<std::string, StepId>> split_step_name(const std::string& name);

/// The stream base of `name` (identity for ordinary names).
std::string base_name(const std::string& name);

} // namespace lowfive::stream
