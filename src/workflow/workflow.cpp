#include "workflow.hpp"

#include <h5/native_vol.hpp>
#include <obs/obs.hpp>

#include <cstdlib>
#include <cstring>
#include <numeric>

namespace workflow {

namespace {

/// L5_TRACE= controls workflow-level tracing: unset/empty/"0" leaves it
/// off, "1" records and writes l5_trace.json, any other value is the
/// output path for the Chrome trace JSON.
const char* trace_env_path() {
    const char* s = std::getenv("L5_TRACE");
    if (!s || !*s || std::strcmp(s, "0") == 0) return nullptr;
    return std::strcmp(s, "1") == 0 ? "l5_trace.json" : s;
}

} // namespace

Mode Mode::from_env() {
    const char* s = std::getenv("L5_MODE");
    if (!s || std::strcmp(s, "memory") == 0) return in_situ();
    if (std::strcmp(s, "file") == 0) return file();
    if (std::strcmp(s, "both") == 0) return both();
    throw std::runtime_error(std::string("workflow: unknown L5_MODE '") + s
                             + "' (expected memory|file|both)");
}

void run(const std::vector<TaskSpec>& tasks, const std::vector<Link>& links,
         const Options& opts) {
    if (tasks.empty()) return;

    int total = 0;
    std::vector<int> first_rank(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (tasks[t].nprocs <= 0)
            throw std::runtime_error("workflow: task '" + tasks[t].name + "' needs nprocs > 0");
        first_rank[t] = total;
        total += tasks[t].nprocs;
    }
    for (const auto& l : links)
        if (l.producer < 0 || l.consumer < 0 || l.producer >= static_cast<int>(tasks.size())
            || l.consumer >= static_cast<int>(tasks.size()) || l.producer == l.consumer)
            throw std::runtime_error("workflow: bad link");

    const char* trace_path = trace_env_path();
    if (trace_path) obs::Tracer::instance().set_enabled(true);

    simmpi::Runtime::run(total, [&](simmpi::Comm& world, int) {
        // which task does this rank belong to?
        int task_index = 0;
        while (task_index + 1 < static_cast<int>(tasks.size())
               && world.rank() >= first_rank[static_cast<std::size_t>(task_index + 1)])
            ++task_index;
        const TaskSpec& spec = tasks[static_cast<std::size_t>(task_index)];

        Context ctx;
        ctx.task_name  = spec.name;
        ctx.task_index = task_index;
        ctx.world      = world;
        ctx.local      = world.split(task_index);

        // one intercommunicator per link, built collectively over the world
        std::vector<simmpi::Comm> link_comms;
        link_comms.reserve(links.size());
        for (const auto& l : links) {
            std::vector<int> prod(static_cast<std::size_t>(tasks[static_cast<std::size_t>(l.producer)].nprocs));
            std::iota(prod.begin(), prod.end(), first_rank[static_cast<std::size_t>(l.producer)]);
            std::vector<int> cons(static_cast<std::size_t>(tasks[static_cast<std::size_t>(l.consumer)].nprocs));
            std::iota(cons.begin(), cons.end(), first_rank[static_cast<std::size_t>(l.consumer)]);
            link_comms.push_back(simmpi::Comm::create_intercomm(world, prod, cons));
        }

        // terminal VOL: collective over the task's ranks (shared-file I/O)
        h5::VolPtr native;
        if (opts.mode.passthru) native = std::make_shared<h5::NativeVol>(ctx.local);

        ctx.vol = std::make_shared<lowfive::DistMetadataVol>(ctx.local, native);
        if (!opts.mode.memory) ctx.vol->clear_memory();
        if (opts.mode.passthru) ctx.vol->set_passthru("*", "*");
        for (const auto& z : opts.zerocopy) ctx.vol->set_zerocopy(z.file_pattern, z.dset_pattern);
        ctx.vol->set_serve_in_background(opts.background_serve);

        for (std::size_t i = 0; i < links.size(); ++i) {
            const Link& l = links[i];
            if (l.producer == task_index) ctx.vol->serve_to(link_comms[i], l.pattern);
            if (l.consumer == task_index) ctx.vol->consume_from(link_comms[i], l.pattern);
            // streamed edge: the producer's window alone decides what
            // its consumers acquire, so only that end registers it
            if (!l.stream.empty() && l.producer == task_index) {
                auto policy = lowfive::stream::parse_policy(l.stream);
                if (!policy)
                    throw std::runtime_error("workflow: link stream policy '" + l.stream
                                             + "' must be block|drop|latest_only");
                lowfive::stream::StreamConfig cfg;
                cfg.policy = *policy;
                if (l.stream_window > 0)
                    cfg.window = static_cast<std::size_t>(l.stream_window);
                ctx.vol->set_stream(l.pattern, cfg);
            }
        }

        {
            obs::Span task_span(obs::intern_if_enabled("task:" + spec.name), "workflow",
                                {{"nprocs", static_cast<std::uint64_t>(spec.nprocs), nullptr},
                                 {"local_rank", static_cast<std::uint64_t>(ctx.rank()), nullptr}});
            int attempt = 0;
            for (;;) {
                try {
                    spec.fn(ctx);
                    break;
                } catch (...) {
                    std::exception_ptr error = std::current_exception();
                    std::string        cause = "unknown exception";
                    try {
                        throw;
                    } catch (const simmpi::AbortedError&) {
                        throw; // a peer's failure poisoned the world, not this task's fault
                    } catch (const std::exception& e) {
                        cause = e.what();
                    } catch (...) {
                    }
                    if (attempt >= spec.max_restarts)
                        throw TaskError(spec.name, ctx.rank(), cause, error);
                    ++attempt;
                    obs::instant("task.restart", "workflow",
                                 {{"attempt", static_cast<std::uint64_t>(attempt), nullptr}});
                }
            }
        }
        obs::Span drain_span("task.drain", "workflow");
        ctx.vol->finish_serving(); // drain serving, stop the serve thread
    }, opts.runtime);

    if (trace_path) obs::write_chrome_trace_file(trace_path);
}

} // namespace workflow
