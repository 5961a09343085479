/// The declarative (Wilkins-style) workflow layer: parsing, validation
/// errors, and end-to-end execution from a config string.

#include <workflow/config.hpp>

#include <lowfive/lowfive.hpp>

#include <gtest/gtest.h>

#include <atomic>

using namespace workflow;

namespace {

constexpr const char* basic_config = R"(
# a two-task pipeline
mode: memory
tasks:
  - name: sim
    ranks: 3
    func: producer
  - name: ana
    ranks: 2
    func: consumer
links:
  - from: sim
    to: ana
    pattern: "*.h5"
)";

} // namespace

TEST(WorkflowConfig, ParsesTasksLinksAndOptions) {
    auto p = parse_workflow(basic_config);
    ASSERT_EQ(p.tasks.size(), 2u);
    EXPECT_EQ(p.tasks[0].name, "sim");
    EXPECT_EQ(p.tasks[0].ranks, 3);
    EXPECT_EQ(p.tasks[0].func, "producer");
    EXPECT_EQ(p.tasks[1].name, "ana");
    ASSERT_EQ(p.links.size(), 1u);
    EXPECT_EQ(p.links[0].producer, 0);
    EXPECT_EQ(p.links[0].consumer, 1);
    EXPECT_EQ(p.links[0].pattern, "*.h5");
    EXPECT_TRUE(p.options.mode.memory);
    EXPECT_FALSE(p.options.mode.passthru);
}

TEST(WorkflowConfig, ParsesModesAndFlags) {
    auto p = parse_workflow(R"(
mode: both
background_serve: true
zerocopy: "*.h5 : particles*"
zerocopy: checkpoint*
tasks:
  - name: a
    ranks: 1
    func: f
)");
    EXPECT_TRUE(p.options.mode.memory);
    EXPECT_TRUE(p.options.mode.passthru);
    EXPECT_TRUE(p.options.background_serve);
    ASSERT_EQ(p.options.zerocopy.size(), 2u);
    EXPECT_EQ(p.options.zerocopy[0].file_pattern, "*.h5");
    EXPECT_EQ(p.options.zerocopy[0].dset_pattern, "particles*");
    EXPECT_EQ(p.options.zerocopy[1].file_pattern, "checkpoint*");
    EXPECT_EQ(p.options.zerocopy[1].dset_pattern, "*");
}

TEST(WorkflowConfig, ParsesStreamedLinks) {
    auto p = parse_workflow(R"(
tasks:
  - name: sim
    ranks: 2
    func: producer
  - name: ana
    ranks: 1
    func: consumer
links:
  - from: sim
    to: ana
    pattern: "*.h5"
    stream: drop
    window: 6
  - from: sim
    to: ana
    stream: latest_only
)");
    ASSERT_EQ(p.links.size(), 2u);
    EXPECT_EQ(p.links[0].stream, "drop");
    EXPECT_EQ(p.links[0].stream_window, 6);
    EXPECT_EQ(p.links[1].stream, "latest_only");
    EXPECT_EQ(p.links[1].stream_window, 0); // default window
    // an unstreamed link stays unstreamed
    auto q = parse_workflow(basic_config);
    EXPECT_TRUE(q.links[0].stream.empty());
}

TEST(WorkflowConfig, RejectsBadStreamDeclarations) {
    const std::string head = R"(
tasks:
  - name: a
    ranks: 1
    func: f
  - name: b
    ranks: 1
    func: g
links:
  - from: a
    to: b
)";
    // unknown policy name, with the valid spellings in the message
    try {
        parse_workflow(head + "    stream: sometimes\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("block|drop|latest_only"), std::string::npos)
            << e.what();
    }
    // window must be a positive integer
    EXPECT_THROW(parse_workflow(head + "    stream: block\n    window: 0\n"), ConfigError);
    EXPECT_THROW(parse_workflow(head + "    stream: block\n    window: -2\n"), ConfigError);
    EXPECT_THROW(parse_workflow(head + "    stream: block\n    window: many\n"), ConfigError);
    // window without stream is meaningless — likely a misconfiguration
    try {
        parse_workflow(head + "    window: 4\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("streamed link"), std::string::npos) << e.what();
    }
}

TEST(WorkflowConfig, ErrorsCarryLineNumbers) {
    try {
        parse_workflow("mode: memory\nbogus_key: 1\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
    // serve_on_close is no key: every producer serves from its serve thread
    try {
        parse_workflow("mode: memory\nserve_on_close: false\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2: unknown top-level key 'serve_on_close'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(WorkflowConfig, ValidatesStructure) {
    EXPECT_THROW(parse_workflow("mode: memory\n"), ConfigError); // no tasks
    EXPECT_THROW(parse_workflow(R"(
tasks:
  - name: a
    ranks: 0
    func: f
)"),
                 ConfigError); // ranks <= 0
    EXPECT_THROW(parse_workflow(R"(
tasks:
  - name: a
    ranks: 1
    func: f
links:
  - from: a
    to: nosuch
)"),
                 ConfigError); // unknown link target
    EXPECT_THROW(parse_workflow(R"(
tasks:
  - name: a
    ranks: two
    func: f
)"),
                 ConfigError); // non-integer ranks
    EXPECT_THROW(parse_workflow("mode: sideways\ntasks:\n  - name: a\n    ranks: 1\n    func: f\n"),
                 ConfigError); // bad mode
}

TEST(WorkflowConfig, RunExecutesRegisteredFunctions) {
    std::atomic<int> produced{0}, consumed{0};

    Registry registry{
        {"producer",
         [&](Context& ctx) {
             h5::File f = h5::File::create("cfg_run.h5", ctx.vol);
             auto     d = f.create_dataset("v", h5::dt::int32(), h5::Dataspace({6}));
             h5::Dataspace sel({6});
             diy::Bounds   b(1);
             b.min[0] = ctx.rank() * 2;
             b.max[0] = ctx.rank() * 2 + 2;
             sel.select_box(b);
             std::vector<std::int32_t> v{ctx.rank() * 2, ctx.rank() * 2 + 1};
             d.write(v.data(), sel);
             f.close();
             produced += 1;
         }},
        {"consumer",
         [&](Context& ctx) {
             h5::File f = h5::File::open("cfg_run.h5", ctx.vol);
             auto     v = f.open_dataset("v").read_vector<std::int32_t>();
             for (int i = 0; i < 6; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
             f.close();
             consumed += 1;
         }},
    };

    run_workflow(basic_config, registry);
    EXPECT_EQ(produced.load(), 3);
    EXPECT_EQ(consumed.load(), 2);
}

TEST(WorkflowConfig, MissingRegistryFunctionRejected) {
    Registry registry; // empty
    EXPECT_THROW(run_workflow(basic_config, registry), ConfigError);
}
