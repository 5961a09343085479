#include "step.hpp"

#include <h5/dataspace.hpp> // h5::Error

namespace lowfive::stream {

namespace {

/// US (unit separator): never part of a portable file name, so versioned
/// names cannot collide with user files and split_step_name is exact.
constexpr char sep = '\x1f';

} // namespace

std::optional<StepPolicy> parse_policy(const std::string& s) {
    if (s == "block") return StepPolicy::Block;
    if (s == "drop") return StepPolicy::Drop;
    if (s == "latest_only") return StepPolicy::LatestOnly;
    return std::nullopt;
}

const char* to_string(StepPolicy p) {
    switch (p) {
    case StepPolicy::Block: return "block";
    case StepPolicy::Drop: return "drop";
    case StepPolicy::LatestOnly: return "latest_only";
    }
    return "?";
}

StreamConfig StreamConfig::normalized() const {
    StreamConfig cfg = *this;
    if (cfg.window == 0) cfg.window = 1;
    if (cfg.policy == StepPolicy::LatestOnly) cfg.window = 1;
    return cfg;
}

std::string step_name(const std::string& base, StepId step) {
    if (!step.valid()) throw h5::Error("lowfive: step_name of an invalid step");
    return base + sep + std::to_string(step.value());
}

std::optional<std::pair<std::string, StepId>> split_step_name(const std::string& name) {
    const auto pos = name.rfind(sep);
    if (pos == std::string::npos) return std::nullopt;
    const std::string digits = name.substr(pos + 1);
    if (digits.empty()) return std::nullopt;
    std::uint64_t v = 0;
    for (char c : digits) {
        if (c < '0' || c > '9') return std::nullopt;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return std::make_pair(name.substr(0, pos), StepId(v));
}

std::string base_name(const std::string& name) {
    if (auto split = split_step_name(name)) return split->first;
    return name;
}

} // namespace lowfive::stream
