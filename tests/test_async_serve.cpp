/// Background (asynchronous) serving — the implementation of the paper's
/// §V-C future work ("consume data as soon as it is available, and
/// overlap reading and writing"). The producer's file close returns
/// immediately; a server thread answers consumer queries while the
/// producer computes the next step.

#include <lowfive/lowfive.hpp>
#include <obs/obs.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

using namespace h5;
using workflow::Context;
using workflow::Link;

namespace {

workflow::Options async_opts() {
    workflow::Options opts;
    opts.mode             = workflow::Mode::in_situ();
    opts.background_serve = true;
    return opts;
}

void write_step(Context& ctx, const std::string& name, int step, std::uint64_t n) {
    File f = File::create(name, ctx.vol);
    auto d = f.create_dataset("v", dt::int64(), Dataspace({n}));
    auto lo = n * static_cast<std::uint64_t>(ctx.rank()) / static_cast<std::uint64_t>(ctx.size());
    auto hi = n * static_cast<std::uint64_t>(ctx.rank() + 1) / static_cast<std::uint64_t>(ctx.size());
    Dataspace   sel({n});
    diy::Bounds b(1);
    b.min[0] = static_cast<std::int64_t>(lo);
    b.max[0] = static_cast<std::int64_t>(hi);
    sel.select_box(b);
    std::vector<std::int64_t> v(hi - lo);
    for (std::uint64_t i = lo; i < hi; ++i) v[i - lo] = step * 1000 + static_cast<std::int64_t>(i);
    d.write(v.data(), sel);
    f.close(); // returns immediately in background mode
}

void read_step(Context& ctx, const std::string& name, int step, std::uint64_t n) {
    File f = File::open(name, ctx.vol);
    auto v = f.open_dataset("v").read_vector<std::int64_t>();
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(v[i], step * 1000 + static_cast<std::int64_t>(i)) << "step " << step;
    f.close();
}

} // namespace

TEST(AsyncServe, SingleRoundCorrectness) {
    workflow::run(
        {
            {"producer", 3, [](Context& ctx) { write_step(ctx, "async1.h5", 1, 64); }},
            {"consumer", 2, [](Context& ctx) { read_step(ctx, "async1.h5", 1, 64); }},
        },
        {Link{0, 1, "*"}}, async_opts());
}

TEST(AsyncServe, CloseReturnsBeforeConsumersAreDone) {
    std::atomic<bool> producer_closed{false};
    std::atomic<bool> closed_before_read{false};

    workflow::run(
        {
            {"producer", 1,
             [&](Context& ctx) {
                 write_step(ctx, "async2.h5", 1, 32); // close returns immediately
                 producer_closed = true;
                 ctx.world.send_value(1, 400, 1); // unblock the consumer
             }},
            {"consumer", 1,
             [&](Context& ctx) {
                 // wait for proof the producer got past its close
                 (void)ctx.world.recv_value<int>(0, 400);
                 closed_before_read = producer_closed.load();
                 read_step(ctx, "async2.h5", 1, 32);
             }},
        },
        {Link{0, 1, "*"}}, async_opts());

    // in sync mode this would deadlock (the producer's close waits for
    // the consumer's round, never reaching the send); in background mode
    // it completes and the close provably preceded the read
    EXPECT_TRUE(closed_before_read.load());
}

TEST(AsyncServe, MultipleRoundsPipelined) {
    constexpr int steps = 4;
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 for (int s = 0; s < steps; ++s)
                     write_step(ctx, "pipe" + std::to_string(s) + ".h5", s, 48);
                 // all four snapshots may still be in flight here; the
                 // runner's finish_serving() drains them
             }},
            {"consumer", 3,
             [](Context& ctx) {
                 for (int s = 0; s < steps; ++s)
                     read_step(ctx, "pipe" + std::to_string(s) + ".h5", s, 48);
             }},
        },
        {Link{0, 1, "*"}}, async_opts());
}

TEST(AsyncServe, ServeAllWaitsForDrain) {
    workflow::run(
        {
            {"producer", 1,
             [](Context& ctx) {
                 write_step(ctx, "drain.h5", 2, 16);
                 ctx.vol->serve_all(); // must block until the consumer finished
                 EXPECT_EQ(ctx.vol->stats().bytes_served, 16u * 8u);
             }},
            {"consumer", 1, [](Context& ctx) { read_step(ctx, "drain.h5", 2, 16); }},
        },
        {Link{0, 1, "*"}}, async_opts());
}

TEST(AsyncServe, DropFileWaitsForConsumers) {
    workflow::run(
        {
            {"producer", 1,
             [](Context& ctx) {
                 write_step(ctx, "dropwait.h5", 3, 16);
                 ctx.vol->drop_file("dropwait.h5"); // must not free served data early
             }},
            {"consumer", 2, [](Context& ctx) { read_step(ctx, "dropwait.h5", 3, 16); }},
        },
        {Link{0, 1, "*"}}, async_opts());
}

// A background open is answered at once, so a consumer rank that is
// faster than the producer can reopen the current version before the next
// publish and send two Dones for one publish. The extra Done is a credit
// that the next publish uses up: the consumer reads nothing after it, and
// teardown must still drain instead of waiting for a Done that never comes.
TEST(AsyncServe, ReopenBeforeNextPublishStillDrains) {
    workflow::Options opts          = async_opts();
    opts.runtime.default_timeout_ms = 10000; // a hang fails as a timeout
    workflow::run(
        {
            {"producer", 1,
             [](Context& ctx) {
                 write_step(ctx, "reopen.h5", 1, 16);
                 write_step(ctx, "fence.h5", 1, 16);
                 (void)ctx.world.recv_value<int>(1, 401);
                 write_step(ctx, "reopen.h5", 2, 16);
                 ctx.vol->finish_serving();
             }},
            {"consumer", 1,
             [](Context& ctx) {
                 read_step(ctx, "reopen.h5", 1, 16);
                 read_step(ctx, "reopen.h5", 1, 16);
                 // one serve thread handles this rank's requests in order,
                 // so this open is answered only after both Dones above
                 // were: the extra Done lands before the second publish
                 read_step(ctx, "fence.h5", 1, 16);
                 ctx.world.send_value(0, 401, 1);
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

// Regression for the Stats data race: the background serve thread used
// to bump a plain Stats struct that the producer thread read while
// serving was still in flight. stats() / metrics snapshots / tracer
// snapshots must all be safe to call concurrently with serving (this is
// what the ThreadSanitizer tree checks).
TEST(AsyncServe, ConcurrentStatsAndTraceReads) {
    auto& tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.set_enabled(true);

    constexpr int steps = 3;
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 std::uint64_t last_served = 0;
                 for (int s = 0; s < steps; ++s) {
                     write_step(ctx, "race" + std::to_string(s) + ".h5", s, 256);
                     // racing reads: the serve thread is updating the
                     // counters and emitting trace events right now
                     for (int i = 0; i < 20; ++i) {
                         auto st = ctx.vol->stats();
                         EXPECT_GE(st.bytes_served, last_served); // monotone
                         last_served = st.bytes_served;
                         (void)ctx.vol->metrics().snapshot();
                         (void)obs::Tracer::instance().snapshot();
                         (void)obs::Tracer::instance().dropped();
                     }
                 }
             }},
            {"consumer", 2,
             [](Context& ctx) {
                 for (int s = 0; s < steps; ++s)
                     read_step(ctx, "race" + std::to_string(s) + ".h5", s, 256);
             }},
        },
        {Link{0, 1, "*"}}, async_opts());

    tracer.set_enabled(false);
    EXPECT_FALSE(tracer.snapshot().empty()); // serving was actually traced
    tracer.clear();
}

TEST(AsyncServe, ProducerRunsAheadOfSlowConsumer) {
    using Clock = std::chrono::steady_clock;

    // the consumer "analyzes" each snapshot for 40 ms before requesting
    // the next one; in sync mode every producer close waits for that
    // analysis, in background mode the producer runs ahead. Sleeps do not
    // burn CPU, so this holds even on a single core.
    auto producer_loop_seconds = [&](bool background) {
        workflow::Options opts;
        opts.mode             = workflow::Mode::in_situ();
        opts.background_serve = background;

        double     loop_s = 0;
        std::mutex mutex;
        workflow::run(
            {
                {"producer", 1,
                 [&](Context& ctx) {
                     auto t0 = Clock::now();
                     for (int s = 0; s < 3; ++s)
                         write_step(ctx, "ov" + std::to_string(s) + ".h5", s, 1 << 12);
                     std::lock_guard<std::mutex> lock(mutex);
                     loop_s = std::chrono::duration<double>(Clock::now() - t0).count();
                 }},
                {"consumer", 1,
                 [&](Context& ctx) {
                     for (int s = 0; s < 3; ++s) {
                         read_step(ctx, "ov" + std::to_string(s) + ".h5", s, 1 << 12);
                         std::this_thread::sleep_for(std::chrono::milliseconds(40));
                     }
                 }},
            },
            {Link{0, 1, "*"}}, opts);
        return loop_s;
    };

    double sync_s  = producer_loop_seconds(false);
    double async_s = producer_loop_seconds(true);
    // sync: the second and third closes each wait ~40 ms for the consumer
    // (~80 ms total); async: the producer's loop is nearly free
    EXPECT_LT(async_s, sync_s * 0.6) << "sync=" << sync_s << "s async=" << async_s << "s";
    EXPECT_GT(sync_s, 0.06);
}
