// Hang-regression suite for the failure-containment layer: every scenario
// here used to deadlock (or would have) before world abort/poison,
// deadlines, and deterministic fault injection existed. Each scenario runs
// under a wall-clock watchdog so a regression fails fast instead of
// wedging the test binary.

#include <lowfive/lowfive.hpp>
#include <workflow/config.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <numeric>
#include <thread>

using namespace simmpi;
using workflow::Context;
using workflow::Link;
using workflow::Options;
using workflow::TaskSpec;

namespace {

/// Run `body` on a helper thread and fail (instead of hanging the suite)
/// if it does not finish within `limit`. Exceptions from the scenario are
/// rethrown into the test thread.
void with_watchdog(const std::function<void()>& body,
                   std::chrono::seconds         limit = std::chrono::seconds(60)) {
    std::packaged_task<void()> task(body);
    auto                       fut = task.get_future();
    std::thread                th(std::move(task));
    if (fut.wait_for(limit) == std::future_status::timeout) {
        th.detach();
        FAIL() << "watchdog expired: scenario still blocked after " << limit.count()
               << "s (this is the deadlock this suite guards against)";
    }
    th.join();
    fut.get();
}

/// Producer half of the DistVol validation pattern (row-decomposed grid).
void write_grid(Context& ctx, std::uint64_t rows, std::uint64_t cols) {
    h5::File f = h5::File::create("fault.h5", ctx.vol);
    auto     d = f.create_dataset("grid", h5::dt::uint64(), h5::Dataspace({rows, cols}));

    diy::Bounds domain(2);
    domain.max = {static_cast<std::int64_t>(rows), static_cast<std::int64_t>(cols)};
    diy::RegularDecomposer dec(domain, ctx.size());
    diy::Bounds            mine = dec.block_bounds(ctx.rank());

    h5::Dataspace sel({rows, cols});
    sel.select_box(mine);
    std::vector<std::uint64_t> vals(sel.npoints());
    std::size_t                k = 0;
    for (auto r = mine.min[0]; r < mine.max[0]; ++r)
        for (auto c = mine.min[1]; c < mine.max[1]; ++c)
            vals[k++] = static_cast<std::uint64_t>(r) * cols + static_cast<std::uint64_t>(c);
    d.write(vals.data(), sel);
    f.close();
}

/// Consumer half: column-decomposed read validating every value.
void read_grid(Context& ctx, std::uint64_t rows, std::uint64_t cols, bool close = true) {
    h5::File f = h5::File::open("fault.h5", ctx.vol);
    auto     d = f.open_dataset("grid");

    auto        c0 = cols * static_cast<std::uint64_t>(ctx.rank()) / static_cast<std::uint64_t>(ctx.size());
    auto        c1 = cols * static_cast<std::uint64_t>(ctx.rank() + 1) / static_cast<std::uint64_t>(ctx.size());
    diy::Bounds mine(2);
    mine.min = {0, static_cast<std::int64_t>(c0)};
    mine.max = {static_cast<std::int64_t>(rows), static_cast<std::int64_t>(c1)};

    h5::Dataspace sel({rows, cols});
    sel.select_box(mine);
    auto vals = d.read_vector<std::uint64_t>(sel);

    std::size_t k = 0;
    for (auto r = mine.min[0]; r < mine.max[0]; ++r)
        for (auto c = mine.min[1]; c < mine.max[1]; ++c, ++k)
            ASSERT_EQ(vals[k], static_cast<std::uint64_t>(r) * cols + static_cast<std::uint64_t>(c));
    if (close) f.close();
}

std::string expect_rank_failure(const std::function<void()>& body) {
    try {
        body();
    } catch (const RankFailure& rf) {
        return rf.what();
    }
    ADD_FAILURE() << "expected RankFailure";
    return {};
}

} // namespace

// --- fault-plan grammar -------------------------------------------------------

TEST(FaultInjection, PlanParsesFullGrammar) {
    auto plan = FaultPlan::parse("seed=42;kill:rank=2,after_ops=50;delay:tag=904,ms=20,prob=0.3");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.kills.size(), 1u);
    EXPECT_EQ(plan.kills[0].rank, 2);
    EXPECT_EQ(plan.kills[0].after_ops, 50u);
    ASSERT_EQ(plan.delays.size(), 1u);
    EXPECT_EQ(plan.delays[0].tag, 904);
    EXPECT_EQ(plan.delays[0].ms, 20);
    EXPECT_DOUBLE_EQ(plan.delays[0].prob, 0.3);
    EXPECT_EQ(plan.delays[0].rank, -1);
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultInjection, PlanRejectsMalformedSpecs) {
    EXPECT_THROW(FaultPlan::parse("explode:rank=1"), Error);
    EXPECT_THROW(FaultPlan::parse("kill:rank=1"), Error);          // missing after_ops
    EXPECT_THROW(FaultPlan::parse("kill:rank=x,after_ops=1"), Error);
    EXPECT_THROW(FaultPlan::parse("kill:rank=1,after_ops=0"), Error);
    EXPECT_THROW(FaultPlan::parse("delay:tag=9,ms=-5"), Error);
    EXPECT_THROW(FaultPlan::parse("delay:tag=9,ms=1,prob=1.5"), Error);
    EXPECT_THROW(FaultPlan::parse("delay:tag=9,ms=1,bogus=2"), Error);
}

// --- abort propagation --------------------------------------------------------

TEST(FaultInjection, AbortUnblocksBlockedRecv) {
    with_watchdog([] {
        auto what = expect_rank_failure([] {
            Runtime::run(2, [](Comm& c) {
                if (c.rank() == 0) {
                    std::vector<std::byte> out;
                    c.recv(1, 7, out); // rank 1 never sends: pre-PR this hung forever
                } else {
                    throw std::runtime_error("rank1 died");
                }
            });
        });
        EXPECT_NE(what.find("rank 1 failed"), std::string::npos) << what;
        EXPECT_NE(what.find("rank1 died"), std::string::npos) << what;
    });
}

TEST(FaultInjection, AbortUnblocksCollectives) {
    with_watchdog([] {
        auto what = expect_rank_failure([] {
            Runtime::run(3, [](Comm& c) {
                if (c.rank() == 2) throw std::runtime_error("no barrier for me");
                c.barrier();
            });
        });
        EXPECT_NE(what.find("rank 2 failed"), std::string::npos) << what;
    });
}

TEST(FaultInjection, AbortedErrorCarriesOriginRankAndCause) {
    with_watchdog([] {
        try {
            Runtime::run(2, [](Comm& c) {
                if (c.rank() == 0) {
                    try {
                        std::vector<std::byte> out;
                        c.recv(1, 7, out);
                    } catch (const AbortedError& e) {
                        EXPECT_EQ(e.origin_rank(), 1);
                        EXPECT_NE(e.cause().find("boom"), std::string::npos);
                        throw;
                    }
                } else {
                    throw std::runtime_error("boom");
                }
            });
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            EXPECT_EQ(rf.rank(), 1);
        }
    });
}

TEST(FaultInjection, RuntimeRecordsAllRankExceptions) {
    with_watchdog([] {
        try {
            Runtime::run(3, [](Comm& c) {
                throw std::runtime_error("boom" + std::to_string(c.rank()));
            });
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            auto ranks = rf.failed_ranks();
            std::sort(ranks.begin(), ranks.end());
            EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));
            EXPECT_NE(std::string(rf.what()).find("3 ranks failed"), std::string::npos)
                << rf.what();
        }
    });
}

TEST(FaultInjection, SendsAfterAbortThrow) {
    with_watchdog([] {
        try {
            Runtime::run(2, [](Comm& c) {
                if (c.rank() == 0) {
                    // wait until the world is poisoned, then try to send
                    for (;;) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                        c.send_value(1, 3, 42); // throws AbortedError once poisoned
                    }
                } else {
                    throw std::runtime_error("down");
                }
            });
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            EXPECT_EQ(rf.rank(), 1);
        }
    });
}

TEST(FaultInjection, RequestWaitUnblocksOnAbort) {
    with_watchdog([] {
        auto what = expect_rank_failure([] {
            Runtime::run(2, [](Comm& c) {
                if (c.rank() == 0) {
                    std::vector<std::byte> out;
                    Request                req = c.irecv(1, 9, out);
                    req.wait(); // pre-PR: blocked forever on the dead peer
                } else {
                    throw std::runtime_error("peer gone");
                }
            });
        });
        EXPECT_NE(what.find("peer gone"), std::string::npos) << what;
    });
}

// --- deadlines ----------------------------------------------------------------

TEST(FaultInjection, PerCallDeadlineThrowsTimeout) {
    with_watchdog([] {
        try {
            Runtime::run(1, [](Comm& c) {
                std::vector<std::byte> out;
                c.with_deadline(50).recv(0, 99, out); // never sent
            });
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            try {
                std::rethrow_exception(rf.cause());
            } catch (const TimeoutError& te) {
                EXPECT_EQ(te.timeout_ms(), 50);
                EXPECT_EQ(te.tag(), 99);
                EXPECT_NE(std::string(te.what()).find("tag=99"), std::string::npos);
            }
        }
    });
}

TEST(FaultInjection, ProbeHonorsDeadline) {
    with_watchdog([] {
        try {
            Runtime::run(1, [](Comm& c) { c.with_deadline(50).probe(0, 42); });
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            EXPECT_THROW(std::rethrow_exception(rf.cause()), TimeoutError);
        }
    });
}

TEST(FaultInjection, WorldDefaultDeadlineFromOptions) {
    with_watchdog([] {
        try {
            Runtime::run(
                1,
                [](Comm& c, int) {
                    std::vector<std::byte> out;
                    c.recv(0, 11, out);
                },
                Runtime::RunOptions{.faults = std::nullopt, .default_timeout_ms = 50, .sched = {}, .check = {}, .race = {}});
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            EXPECT_THROW(std::rethrow_exception(rf.cause()), TimeoutError);
        }
    });
}

TEST(FaultInjection, SetDefaultDeadlineAndPerCallOverride) {
    with_watchdog([] {
        Runtime::run(2, [](Comm& c) {
            c.set_default_deadline(50);
            if (c.rank() == 0) {
                // with_deadline(0) disables the default: this recv must
                // wait out rank 1's late send instead of timing out
                EXPECT_EQ(c.with_deadline(0).recv_value<int>(1, 5), 77);
            } else {
                std::this_thread::sleep_for(std::chrono::milliseconds(150));
                c.send_value(0, 5, 77);
            }
        });
    });
}

TEST(FaultInjection, TimeoutMsEnvIsHonored) {
    ::setenv("L5_TIMEOUT_MS", "50", 1);
    with_watchdog([] {
        try {
            Runtime::run(1, [](Comm& c) {
                std::vector<std::byte> out;
                c.recv(0, 13, out);
            });
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            EXPECT_THROW(std::rethrow_exception(rf.cause()), TimeoutError);
        }
    });
    ::setenv("L5_TIMEOUT_MS", "notanumber", 1);
    EXPECT_THROW(Runtime::run(1, [](Comm&) {}), Error);
    ::unsetenv("L5_TIMEOUT_MS");
}

// --- deterministic fault injection --------------------------------------------

namespace {

/// Drive a fixed ping-pong schedule into an injected kill and return the
/// primary FaultError message (which embeds the kill's op index).
std::string killed_pingpong_message() {
    auto plan = FaultPlan::parse("seed=9;kill:rank=1,after_ops=5");
    try {
        Runtime::run(
            2,
            [](Comm& c, int) {
                for (int i = 0; i < 100; ++i) {
                    if (c.rank() == 0) {
                        c.send_value(1, 7, i);
                        (void)c.recv_value<int>(1, 8);
                    } else {
                        (void)c.recv_value<int>(0, 7);
                        c.send_value(0, 8, i);
                    }
                }
            },
            Runtime::RunOptions{.faults = plan, .default_timeout_ms = -1, .sched = {}, .check = {}, .race = {}});
    } catch (const RankFailure& rf) {
        try {
            std::rethrow_exception(rf.cause());
        } catch (const FaultError& fe) {
            EXPECT_EQ(fe.rank(), 1);
            return fe.what();
        }
    }
    ADD_FAILURE() << "expected an injected FaultError";
    return {};
}

} // namespace

TEST(FaultInjection, KillPointIsDeterministicAcrossRuns) {
    with_watchdog([] {
        std::string first  = killed_pingpong_message();
        std::string second = killed_pingpong_message();
        EXPECT_EQ(first, second);
        EXPECT_NE(first.find("killed at op 5"), std::string::npos) << first;
    });
}

TEST(FaultInjection, FaultsEnvKillsRank) {
    ::setenv("L5_FAULTS", "kill:rank=0,after_ops=1", 1);
    with_watchdog([] {
        try {
            Runtime::run(1, [](Comm& c) { c.send_value(0, 1, 7); });
            FAIL() << "expected RankFailure";
        } catch (const RankFailure& rf) {
            EXPECT_THROW(std::rethrow_exception(rf.cause()), FaultError);
        }
    });
    ::unsetenv("L5_FAULTS");
}

// --- index–serve–query under failure ------------------------------------------

TEST(FaultInjection, ProducerKilledBeforeServeUnblocksConsumer) {
    with_watchdog([] {
        auto what = expect_rank_failure([] {
            workflow::run(
                {
                    {"producer", 1,
                     [](Context&) { throw std::runtime_error("injected producer crash"); }},
                    {"consumer", 1, [](Context& ctx) { read_grid(ctx, 8, 8); }},
                },
                {Link{0, 1, "*"}});
        });
        // structured error names the failed task and rank; the consumer,
        // blocked waiting for metadata, was unblocked by the abort
        EXPECT_NE(what.find("task 'producer'"), std::string::npos) << what;
        EXPECT_NE(what.find("injected producer crash"), std::string::npos) << what;
    });
}

TEST(FaultInjection, ProducerKilledByFaultPlanUnblocksConsumer) {
    Options opts;
    // rank 0 (the producer) performs ~17 message ops in this run shape;
    // op 12 lands inside the serve loop, after the consumer's queries
    // have started — the consumer is mid-protocol when the kill fires
    opts.runtime.faults = FaultPlan::parse("kill:rank=0,after_ops=12");
    with_watchdog([&] {
        auto what = expect_rank_failure([&] {
            workflow::run(
                {
                    {"producer", 1, [](Context& ctx) { write_grid(ctx, 8, 8); }},
                    {"consumer", 1, [](Context& ctx) { read_grid(ctx, 8, 8); }},
                },
                {Link{0, 1, "*"}}, opts);
        });
        EXPECT_NE(what.find("failed"), std::string::npos) << what;
    });
}

TEST(FaultInjection, ConsumerKilledBeforeDoneUnblocksProducer) {
    with_watchdog([] {
        auto what = expect_rank_failure([] {
            workflow::run(
                {
                    {"producer", 1, [](Context& ctx) { write_grid(ctx, 8, 8); }},
                    {"consumer", 1,
                     [](Context& ctx) {
                         read_grid(ctx, 8, 8, /*close=*/false); // never sends done
                         throw std::runtime_error("consumer died before done");
                     }},
                },
                {Link{0, 1, "*"}});
        });
        // pre-PR the producer hung in its close waiting for the done
        EXPECT_NE(what.find("task 'consumer'"), std::string::npos) << what;
    });
}

TEST(FaultInjection, BackgroundServeSurvivesConsumerDeath) {
    Options opts;
    opts.background_serve = true;
    with_watchdog([&] {
        auto what = expect_rank_failure([&] {
            workflow::run(
                {
                    {"producer", 1, [](Context& ctx) { write_grid(ctx, 8, 8); }},
                    {"consumer", 1,
                     [](Context& ctx) {
                         read_grid(ctx, 8, 8, /*close=*/false);
                         throw std::runtime_error("consumer died before done");
                     }},
                },
                {Link{0, 1, "*"}}, opts);
        });
        // pre-PR finish_serving() waited forever on the done counter and
        // the producer's destructor joined a thread that never exited
        EXPECT_NE(what.find("task 'consumer'"), std::string::npos) << what;
    });
}

TEST(FaultInjection, ConsumerTimesOutWhenProducerNeverServes) {
    Options opts;
    opts.runtime.default_timeout_ms = 200;
    with_watchdog([&] {
        auto what = expect_rank_failure([&] {
            workflow::run(
                {
                    {"producer", 1, [](Context&) { /* never creates the file */ }},
                    {"consumer", 1, [](Context& ctx) { read_grid(ctx, 8, 8); }},
                },
                {Link{0, 1, "*"}}, opts);
        });
        // no rank failed here — the protocol just stalled; the deadline
        // turns the silent hang into a diagnosable TimeoutError
        EXPECT_NE(what.find("task 'consumer'"), std::string::npos) << what;
        EXPECT_NE(what.find("timeout"), std::string::npos) << what;
    });
}

TEST(FaultInjection, IdleServerOutlivesDeadline) {
    // a producer that computes past the world deadline after its last
    // round leaves its serve loop idle, not stalled: waiting for the next
    // request must not time out, in either serving mode
    for (const bool background : {false, true}) {
        SCOPED_TRACE(background ? "background serve" : "sync serve");
        Options opts;
        opts.background_serve           = background;
        opts.runtime.default_timeout_ms = 200;
        with_watchdog([&] {
            workflow::run(
                {
                    {"producer", 1,
                     [](Context& ctx) {
                         write_grid(ctx, 8, 8);
                         ctx.vol->serve_all();
                         std::this_thread::sleep_for(std::chrono::milliseconds(600)); // compute
                     }},
                    {"consumer", 1, [](Context& ctx) { read_grid(ctx, 8, 8); }},
                },
                {Link{0, 1, "*"}}, opts);
        });
    }
}

TEST(FaultInjection, StalledConsumerTimesOutProducer) {
    // a consumer that holds its round open forever is a stall: the
    // producer's wait for that round's Done runs under the world deadline
    // and fails the producer with a TimeoutError, in either serving mode
    for (const bool background : {false, true}) {
        SCOPED_TRACE(background ? "background serve" : "sync serve");
        Options opts;
        opts.background_serve           = background;
        opts.runtime.default_timeout_ms = 200;
        with_watchdog([&] {
            auto what = expect_rank_failure([&] {
                workflow::run(
                    {
                        {"producer", 1, [](Context& ctx) { write_grid(ctx, 8, 8); }},
                        {"consumer", 1,
                         [](Context& ctx) {
                             h5::File f = h5::File::open("fault.h5", ctx.vol);
                             (void)f.open_dataset("grid").read_vector<std::uint64_t>();
                             // the round stays open: nobody ever sends this
                             (void)ctx.world.with_deadline(0).recv_value<int>(0, 777);
                         }},
                    },
                    {Link{0, 1, "*"}}, opts);
            });
            // world rank 0 is the producer
            EXPECT_NE(what.find("rank 0 failed"), std::string::npos) << what;
            EXPECT_NE(what.find("timeout"), std::string::npos) << what;
        });
    }
}

TEST(FaultInjection, DelayedDataRepliesStayByteIdentical) {
    // perturb the schedule: data replies (tag 904) randomly delayed, so
    // pipelined out-of-order completion paths get exercised; read_grid
    // validates every value, proving byte identity under reordering
    Options opts;
    opts.runtime.faults = FaultPlan::parse("seed=11;delay:tag=904,ms=2,prob=0.5");
    with_watchdog([&] {
        workflow::run(
            {
                {"producer", 3, [](Context& ctx) { write_grid(ctx, 16, 16); }},
                {"consumer", 2, [](Context& ctx) { read_grid(ctx, 16, 16); }},
            },
            {Link{0, 1, "*"}}, opts);
    });
}

// --- restart policy -----------------------------------------------------------

TEST(FaultInjection, WorkflowRestartsTransientFailure) {
    std::atomic<int> attempts{0};
    with_watchdog([&] {
        workflow::run(
            {
                {"flaky", 1,
                 [&](Context&) {
                     if (attempts.fetch_add(1) == 0)
                         throw std::runtime_error("transient");
                 },
                 /*max_restarts=*/1},
            },
            {});
    });
    EXPECT_EQ(attempts.load(), 2);
}

TEST(FaultInjection, WorkflowRestartSucceedsAfterInjectedKill) {
    // the kill fires exactly once (at the Nth op), so the restarted body
    // runs clean — the transient-fault recovery story end to end
    std::atomic<int> attempts{0};
    Options          opts;
    // op 5 is a send: the kill throws before the message is enqueued, so
    // the restarted attempt starts from an empty mailbox (a kill on a recv
    // would leave the in-flight message behind for the rerun to mis-read)
    opts.runtime.faults = FaultPlan::parse("kill:rank=0,after_ops=5");
    with_watchdog([&] {
        workflow::run(
            {
                {"flaky", 1,
                 [&](Context& ctx) {
                     attempts.fetch_add(1);
                     for (int i = 0; i < 10; ++i) {
                         ctx.local.send_value(0, 1, i);
                         EXPECT_EQ(ctx.local.recv_value<int>(0, 1), i);
                     }
                 },
                 /*max_restarts=*/1},
            },
            {}, opts);
    });
    EXPECT_EQ(attempts.load(), 2);
}

TEST(FaultInjection, RestartsExhaustedFailsWithTaskError) {
    std::atomic<int> attempts{0};
    with_watchdog([&] {
        auto what = expect_rank_failure([&] {
            workflow::run(
                {
                    {"doomed", 1,
                     [&](Context&) {
                         attempts.fetch_add(1);
                         throw std::runtime_error("always fails");
                     },
                     /*max_restarts=*/2},
                },
                {});
        });
        EXPECT_NE(what.find("task 'doomed'"), std::string::npos) << what;
    });
    EXPECT_EQ(attempts.load(), 3); // 1 try + 2 restarts
}

TEST(FaultInjection, ConfigRestartsKeyIsParsed) {
    auto parsed = workflow::parse_workflow(R"(
tasks:
  - name: sim
    ranks: 2
    func: f
    restarts: 3
)");
    ASSERT_EQ(parsed.tasks.size(), 1u);
    EXPECT_EQ(parsed.tasks[0].restarts, 3);
    EXPECT_THROW(workflow::parse_workflow("tasks:\n  - name: a\n    ranks: 1\n    func: f\n"
                                          "    restarts: -1\n"),
                 workflow::ConfigError);
}
