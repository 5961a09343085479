#pragma once

#include "workflow.hpp"

#include <map>
#include <stdexcept>
#include <string>

namespace workflow {

/// Error in a declarative workflow description.
class ConfigError : public std::runtime_error {
public:
    explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// The paper's future work §V-C mentions "a higher-level workflow system
/// that uses LowFive as its transport layer" (what later became Wilkins,
/// which describes workflows declaratively in YAML). This is that layer
/// in miniature: a task graph described in a small YAML-like text format,
/// with task bodies looked up in a function registry.
///
/// ```yaml
/// mode: memory            # memory | file | both     (optional)
/// background_serve: true  # optional: producer closes return at once
/// zerocopy: "*.h5 : particles*"   # optional, repeatable
/// tasks:
///   - name: sim
///     ranks: 8
///     func: nyx           # registry key
///     restarts: 1         # optional retry budget for idempotent bodies
///   - name: ana
///     ranks: 4
///     func: reeber
/// links:
///   - from: sim
///     to: ana
///     pattern: "*.h5"     # optional, default "*"
/// ```
///
/// Supported syntax: two-space indentation, `key: value` pairs, `- ` list
/// items, `#` comments, optional double quotes around values. This is a
/// deliberate subset, not a YAML implementation.
struct ParsedWorkflow {
    struct TaskDecl {
        std::string name;
        int         ranks = 0;
        std::string func;
        int         restarts = 0; ///< max_restarts retry budget
    };
    std::vector<TaskDecl> tasks;
    std::vector<Link>     links;
    Options               options;
};

/// Parse a declarative workflow description; throws ConfigError with a
/// line number on malformed input.
ParsedWorkflow parse_workflow(const std::string& text);

/// Task-body registry: config `func:` keys to callables.
using Registry = std::map<std::string, std::function<void(Context&)>>;

/// Parse and run: the whole orchestration the paper's Henson/Python
/// script performed, driven from a config string.
void run_workflow(const std::string& config_text, const Registry& registry);

} // namespace workflow
