#include "config.hpp"

#include <algorithm>
#include <sstream>

namespace workflow {

namespace {

struct Line {
    int         number = 0;
    int         indent = 0;
    bool        item   = false; ///< starts with "- "
    std::string key, value;     ///< key may be empty for bare list items
};

std::string strip(const std::string& s) {
    auto b = s.find_first_not_of(" \t");
    if (b == std::string::npos) return "";
    auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::string unquote(std::string v) {
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') return v.substr(1, v.size() - 2);
    return v;
}

[[noreturn]] void fail(int line, const std::string& what) {
    throw ConfigError("workflow config, line " + std::to_string(line) + ": " + what);
}

std::vector<Line> tokenize(const std::string& text) {
    std::vector<Line>  lines;
    std::istringstream in(text);
    std::string        raw;
    int                number = 0;
    while (std::getline(in, raw)) {
        ++number;
        // strip comments (a '#' not inside quotes)
        bool        quoted = false;
        std::string body;
        for (char c : raw) {
            if (c == '"') quoted = !quoted;
            if (c == '#' && !quoted) break;
            body.push_back(c);
        }
        std::string content = strip(body);
        if (content.empty()) continue;

        Line l;
        l.number = number;
        l.indent = static_cast<int>(body.find_first_not_of(' '));
        if (content.rfind("- ", 0) == 0) {
            l.item  = true;
            content = strip(content.substr(2));
        } else if (content == "-") {
            l.item  = true;
            content = "";
        }
        if (!content.empty()) {
            auto colon = content.find(':');
            if (colon == std::string::npos) fail(number, "expected 'key: value'");
            l.key   = strip(content.substr(0, colon));
            l.value = unquote(strip(content.substr(colon + 1)));
        }
        lines.push_back(l);
    }
    return lines;
}

int parse_int(const Line& l) {
    try {
        std::size_t used = 0;
        int         v    = std::stoi(l.value, &used);
        if (used != l.value.size()) throw std::invalid_argument("");
        return v;
    } catch (const std::exception&) {
        fail(l.number, "'" + l.key + "' needs an integer, got '" + l.value + "'");
    }
}

bool parse_bool(const Line& l) {
    if (l.value == "true" || l.value == "yes") return true;
    if (l.value == "false" || l.value == "no") return false;
    fail(l.number, "'" + l.key + "' needs true/false, got '" + l.value + "'");
}

} // namespace

ParsedWorkflow parse_workflow(const std::string& text) {
    ParsedWorkflow out;
    out.options.mode = Mode::in_situ(); // config files default to in situ

    auto lines = tokenize(text);

    enum class Section { None, Tasks, Links };
    Section                    section = Section::None;
    ParsedWorkflow::TaskDecl*  task    = nullptr;
    struct LinkDecl {
        std::string from, to, pattern = "*";
        std::string stream;     ///< backpressure policy name; empty = not streamed
        int         window = 0; ///< staging window; 0 = default
        int         line   = 0;
    };
    std::vector<LinkDecl> link_decls;
    LinkDecl*             link = nullptr;

    for (const auto& l : lines) {
        if (l.indent == 0 && !l.item) {
            task = nullptr;
            link = nullptr;
            if (l.key == "tasks" && l.value.empty()) {
                section = Section::Tasks;
            } else if (l.key == "links" && l.value.empty()) {
                section = Section::Links;
            } else if (l.key == "mode") {
                section = Section::None;
                if (l.value == "memory")
                    out.options.mode = Mode::in_situ();
                else if (l.value == "file")
                    out.options.mode = Mode::file();
                else if (l.value == "both")
                    out.options.mode = Mode::both();
                else
                    fail(l.number, "mode must be memory|file|both");
            } else if (l.key == "background_serve") {
                section                      = Section::None;
                out.options.background_serve = parse_bool(l);
            } else if (l.key == "zerocopy") {
                section  = Section::None;
                auto sep = l.value.find(':');
                if (sep == std::string::npos) {
                    out.options.zerocopy.push_back({strip(l.value), "*"});
                } else {
                    out.options.zerocopy.push_back(
                        {strip(l.value.substr(0, sep)), strip(l.value.substr(sep + 1))});
                }
            } else {
                fail(l.number, "unknown top-level key '" + l.key + "'");
            }
            continue;
        }

        if (section == Section::Tasks) {
            if (l.item) {
                out.tasks.emplace_back();
                task = &out.tasks.back();
            }
            if (!task) fail(l.number, "task fields outside a '- ' item");
            if (l.key == "name")
                task->name = l.value;
            else if (l.key == "ranks")
                task->ranks = parse_int(l);
            else if (l.key == "func")
                task->func = l.value;
            else if (l.key == "restarts")
                task->restarts = parse_int(l);
            else if (!l.key.empty())
                fail(l.number, "unknown task key '" + l.key + "'");
        } else if (section == Section::Links) {
            if (l.item) {
                link_decls.push_back({});
                link       = &link_decls.back();
                link->line = l.number;
            }
            if (!link) fail(l.number, "link fields outside a '- ' item");
            if (l.key == "from")
                link->from = l.value;
            else if (l.key == "to")
                link->to = l.value;
            else if (l.key == "pattern")
                link->pattern = l.value;
            else if (l.key == "stream") {
                if (!lowfive::stream::parse_policy(l.value))
                    fail(l.number, "'stream' must be block|drop|latest_only, got '" + l.value + "'");
                link->stream = l.value;
            } else if (l.key == "window") {
                link->window = parse_int(l);
                if (link->window <= 0) fail(l.number, "'window' needs a positive integer");
            } else if (!l.key.empty())
                fail(l.number, "unknown link key '" + l.key + "'");
        } else if (!l.key.empty()) {
            fail(l.number, "indented '" + l.key + "' outside tasks/links");
        }
    }

    if (out.tasks.empty()) throw ConfigError("workflow config: no tasks declared");
    for (const auto& t : out.tasks) {
        if (t.name.empty()) throw ConfigError("workflow config: task without a name");
        if (t.ranks <= 0)
            throw ConfigError("workflow config: task '" + t.name + "' needs ranks > 0");
        if (t.func.empty())
            throw ConfigError("workflow config: task '" + t.name + "' needs a func");
        if (t.restarts < 0)
            throw ConfigError("workflow config: task '" + t.name + "' needs restarts >= 0");
    }

    auto index_of = [&](const std::string& name, int line) {
        for (std::size_t i = 0; i < out.tasks.size(); ++i)
            if (out.tasks[i].name == name) return static_cast<int>(i);
        fail(line, "link references unknown task '" + name + "'");
    };
    for (const auto& ld : link_decls) {
        if (ld.window > 0 && ld.stream.empty())
            fail(ld.line, "'window' is only meaningful on a streamed link (add 'stream:')");
        out.links.push_back({index_of(ld.from, ld.line), index_of(ld.to, ld.line), ld.pattern,
                             ld.stream, ld.window});
    }

    return out;
}

void run_workflow(const std::string& config_text, const Registry& registry) {
    auto parsed = parse_workflow(config_text);

    std::vector<TaskSpec> specs;
    specs.reserve(parsed.tasks.size());
    for (const auto& t : parsed.tasks) {
        auto it = registry.find(t.func);
        if (it == registry.end())
            throw ConfigError("workflow config: no registered function '" + t.func + "' for task '"
                              + t.name + "'");
        specs.push_back({t.name, t.ranks, it->second, t.restarts});
    }
    run(specs, parsed.links, parsed.options);
}

} // namespace workflow
