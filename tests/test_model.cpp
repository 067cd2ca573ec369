/**
 * @file
 * Tests for the model subsystem: graph binding validation, the model-file
 * parser, the BIRRD reorder switching-cost model, schedule policies, the
 * per-layer DP scheduler (including the headline property: the per-layer
 * schedule never loses to the best fixed dataflow on the built-in
 * graphs), scheduler determinism across thread counts, the model-mode
 * CLI, and the golden-file schema lock of the schedule report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "golden_util.hpp"
#include "model/graph.hpp"
#include "model/model_cli.hpp"
#include "model/report.hpp"
#include "model/scheduler.hpp"
#include "sim/driver.hpp"

namespace feather {
namespace model {
namespace {

using golden::csvHeader;
using golden::jsonKeys;
using golden::readGoldenLines;

// ---------------------------------------------------------------------------
// ModelGraph
// ---------------------------------------------------------------------------

TEST(ModelGraph, BuiltinsValidateAndResolve)
{
    EXPECT_GE(builtinModels().size(), 3u);
    for (const ModelGraph &g : builtinModels()) {
        EXPECT_EQ(g.validate(), "") << g.name;
        EXPECT_GT(g.totalMacs(), 0) << g.name;
        EXPECT_EQ(findModel(g.name), &g);
    }
    EXPECT_EQ(findModel("nope"), nullptr);
    const std::vector<std::string> names = modelNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "resnet_block"),
              names.end());
}

TEST(ModelGraph, RejectsBrokenChannelBinding)
{
    ModelGraph g;
    g.name = "bad";
    g.layers = {{sim::convLayer("a", 8, 14, 16, 1, 1, 0), 0.02f},
                {sim::convLayer("b", 8, 14, 16, 1, 1, 0), 0.02f}};
    const std::string why = g.validate();
    EXPECT_NE(why.find("16 channels"), std::string::npos) << why;
}

TEST(ModelGraph, RejectsSpatialMismatchAndMixedOps)
{
    ModelGraph g;
    g.name = "bad";
    g.layers = {{sim::convLayer("a", 8, 14, 8, 3, 2, 1), 0.02f}, // -> 7x7
                {sim::convLayer("b", 8, 14, 8, 3, 1, 1), 0.02f}};
    EXPECT_NE(g.validate().find("7x7"), std::string::npos);

    g.layers = {{sim::gemmLayer("fc", 8, 16, 32), 0.02f},
                {sim::convLayer("c", 16, 4, 8, 1, 1, 0), 0.02f}};
    EXPECT_NE(g.validate().find("conv<->GEMM"), std::string::npos);

    g.layers.clear();
    EXPECT_NE(g.validate().find("no layers"), std::string::npos);
}

TEST(ModelGraph, DepthwiseBindsByChannelCount)
{
    ModelGraph g;
    g.name = "dw";
    g.layers = {{sim::convLayer("pw", 8, 14, 16, 1, 1, 0), 0.02f},
                {sim::depthwiseLayer("dw", 16, 14, 3, 1, 1), 0.05f},
                {sim::convLayer("out", 16, 14, 8, 1, 1, 0), 0.02f}};
    EXPECT_EQ(g.validate(), "");
}

// ---------------------------------------------------------------------------
// Model-file parser
// ---------------------------------------------------------------------------

TEST(ModelFile, ParsesDirectivesAndLayerTypes)
{
    const std::string text = "# comment\n"
                             "model tiny\n"
                             "aw 4\n"
                             "ah 8\n"
                             "conv name=stem c=8 hw=14 m=16 rs=3 pad=1\n"
                             "depthwise c=16 hw=14 rs=3 pad=1 qm=0.05\n"
                             "pointwise name=pw c=16 hw=14 m=8\n";
    std::string error;
    const auto g = parseModelText(text, "fallback", &error);
    ASSERT_TRUE(g.has_value()) << error;
    EXPECT_EQ(g->name, "tiny");
    EXPECT_EQ(g->default_aw, 4);
    EXPECT_EQ(g->default_ah, 8);
    ASSERT_EQ(g->layers.size(), 3u);
    EXPECT_EQ(g->layers[0].spec.name, "stem");
    EXPECT_EQ(g->layers[0].spec.conv.r, 3);
    EXPECT_EQ(g->layers[1].spec.type, OpType::DepthwiseConv);
    EXPECT_FLOAT_EQ(g->layers[1].multiplier, 0.05f);
    EXPECT_EQ(g->layers[2].spec.conv.r, 1);
    EXPECT_EQ(g->validate(), "");
}

TEST(ModelFile, ParsesGemmChain)
{
    std::string error;
    const auto g = parseModelText("gemm name=a m=8 n=16 k=32\n"
                                  "gemm name=b m=8 n=4 k=16\n",
                                  "mlp", &error);
    ASSERT_TRUE(g.has_value()) << error;
    EXPECT_EQ(g->name, "mlp");
    EXPECT_EQ(g->layers[0].spec.gemm.n, 16);
}

TEST(ModelFile, ErrorsNameTheLine)
{
    std::string error;
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8\nwat x=1\n", "t",
                                &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("unknown layer type 'wat'"), std::string::npos);

    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8 zap=3\n", "t", &error));
    EXPECT_NE(error.find("unknown key 'zap'"), std::string::npos) << error;

    EXPECT_FALSE(parseModelText("conv hw=14 m=8\n", "t", &error));
    EXPECT_NE(error.find("needs c="), std::string::npos) << error;

    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8 qm=zero\n", "t",
                                &error));
    EXPECT_NE(error.find("qm"), std::string::npos) << error;

    // Pointwise layers are fixed at r=s=1; kernel keys must be rejected.
    EXPECT_FALSE(parseModelText("pointwise c=8 hw=14 m=8 rs=3\n", "t",
                                &error));
    EXPECT_NE(error.find("unknown key 'rs' for a pointwise layer"),
              std::string::npos)
        << error;

    // Keys another layer type consumes are still typos here: a silently
    // dropped m= on a depthwise layer would schedule a different model.
    EXPECT_FALSE(parseModelText("depthwise c=16 hw=14 rs=3 pad=1 m=999\n",
                                "t", &error));
    EXPECT_NE(error.find("unknown key 'm' for a depthwise layer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(parseModelText("gemm m=8 n=4 k=4 stride=2\n", "t",
                                &error));
    EXPECT_NE(error.find("unknown key 'stride'"), std::string::npos)
        << error;

    // Conflicting duplicates must not silently resolve to either value.
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=16 c=32\n", "t",
                                &error));
    EXPECT_NE(error.find("duplicate key 'c'"), std::string::npos) << error;

    // Zero is invalid for every dimension key except pad (a zero stride
    // or extent would crash the shape math downstream).
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=16 rs=3 stride=0\n", "t",
                                &error));
    EXPECT_NE(error.find("stride needs a positive integer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=16 w=0\n", "t", &error));
    EXPECT_NE(error.find("w needs a positive integer"), std::string::npos)
        << error;
    EXPECT_TRUE(parseModelText("conv c=8 hw=14 m=16 rs=3 pad=0\n", "t",
                               &error)
                    .has_value())
        << error;

    // A per-line parse pass is not enough: the chain must also bind.
    EXPECT_FALSE(parseModelText("conv c=8 hw=14 m=8\n"
                                "conv c=99 hw=14 m=8\n",
                                "t", &error));
    EXPECT_NE(error.find("8 channels"), std::string::npos) << error;
}

TEST(ModelFile, LoadModelPrefersBuiltinsAndListsNamesOnFailure)
{
    std::string error;
    const auto g = loadModel("resnet_block", &error);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->layers.size(), 3u);

    EXPECT_FALSE(loadModel("no_such_model", &error).has_value());
    EXPECT_NE(error.find("unknown model 'no_such_model'"),
              std::string::npos);
    for (const std::string &name : modelNames()) {
        EXPECT_NE(error.find(name), std::string::npos) << error;
    }
}

// ---------------------------------------------------------------------------
// Switching-cost model
// ---------------------------------------------------------------------------

TEST(ReorderCost, ZeroWhenConcordant)
{
    Extents e;
    e[Dim::C] = 8;
    e[Dim::H] = 4;
    e[Dim::W] = 4;
    const Layout l = Layout::parse("HWC_C8");
    EXPECT_EQ(reorderCost(l, l, e), 0);
}

TEST(ReorderCost, CountsDistinctSourceLinesPerDestinationLine)
{
    // 2x2x2 CHW tensor: HWC_C2 lines hold {(c=0..1, h, w)}, CHW_W2 lines
    // hold {(c, h, w=0..1)}. Every destination line draws from exactly 2
    // source lines; 4 destination lines -> 8 read cycles.
    Extents e;
    e[Dim::C] = 2;
    e[Dim::H] = 2;
    e[Dim::W] = 2;
    EXPECT_EQ(reorderCost(Layout::parse("CHW_W2"), Layout::parse("HWC_C2"),
                          e),
              8);
    // The transpose in the other direction is symmetric here.
    EXPECT_EQ(reorderCost(Layout::parse("HWC_C2"), Layout::parse("CHW_W2"),
                          e),
              8);
}

TEST(ReorderCost, GrowsWithTensorSize)
{
    Extents small;
    small[Dim::C] = 4;
    small[Dim::H] = 4;
    small[Dim::W] = 4;
    Extents big = small;
    big[Dim::H] = 16;
    big[Dim::W] = 16;
    const Layout src = Layout::parse("CHW_W4");
    const Layout dst = Layout::parse("HWC_C4");
    EXPECT_LT(reorderCost(src, dst, small), reorderCost(src, dst, big));
}

// ---------------------------------------------------------------------------
// Schedule policies
// ---------------------------------------------------------------------------

TEST(SchedulePolicy, ParsesAllForms)
{
    EXPECT_EQ(parseSchedule("per-layer")->kind, ScheduleKind::PerLayer);
    EXPECT_EQ(parseSchedule("greedy")->kind, ScheduleKind::Greedy);
    const auto fixed = parseSchedule("fixed:wp");
    ASSERT_TRUE(fixed.has_value());
    EXPECT_EQ(fixed->kind, ScheduleKind::Fixed);
    EXPECT_EQ(fixed->fixed, sim::DataflowKind::WindowParallel);
    EXPECT_EQ(toString(*fixed), "fixed:window-parallel");
    EXPECT_EQ(toString(*parseSchedule("fixed:canonical")),
              "fixed:canonical");

    std::string error;
    EXPECT_FALSE(parseSchedule("fixed:zz", &error).has_value());
    EXPECT_NE(error.find("unknown schedule"), std::string::npos);
    EXPECT_FALSE(parseSchedule("random", &error).has_value());
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, EnumeratesAndEvaluatesCandidates)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    ASSERT_EQ(eval->layers.size(), 3u);
    for (const auto &cands : eval->layers) {
        EXPECT_GE(cands.size(), 2u) << "conv layers have distinct families";
        for (const Candidate &c : cands) {
            EXPECT_GT(c.est_cycles, 0);
            EXPECT_GT(c.macs, 0);
            EXPECT_TRUE(c.bit_exact);
            EXPECT_FALSE(c.kinds.empty());
        }
    }
    EXPECT_GT(s.cache().stats().lookups(), 0u);
}

TEST(Scheduler, GemmFamiliesCollapseToOneCandidate)
{
    const ModelGraph *g = findModel("bert_mlp");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    for (const auto &cands : eval->layers) {
        ASSERT_EQ(cands.size(), 1u);
        EXPECT_EQ(cands[0].kinds.size(), 3u)
            << "all three families plan to the canonical GEMM mapping";
    }
}

TEST(Scheduler, PerLayerNeverLosesToBestFixedOnBuiltins)
{
    for (const ModelGraph &g : builtinModels()) {
        Scheduler s;
        std::string error;
        const auto cmp = s.compare(
            g, SchedulePolicy{ScheduleKind::PerLayer,
                              sim::DataflowKind::Canonical, {}},
            &error);
        ASSERT_TRUE(cmp.has_value()) << g.name << ": " << error;
        const ScheduleResult &p = cmp->primary();
        EXPECT_TRUE(p.bitExact()) << g.name;
        const int best = cmp->bestFixed();
        ASSERT_GE(best, 0) << g.name;
        EXPECT_LE(p.cycles, cmp->schedules[size_t(best)].cycles) << g.name;
        EXPECT_GE(cmp->speedupVsBestFixed(), 1.0) << g.name;
        for (const ScheduleResult &r : cmp->schedules) {
            EXPECT_TRUE(r.bitExact()) << g.name << "/" << r.schedule;
        }
    }
}

TEST(Scheduler, PerLayerStrictlyBeatsAFixedDataflowOnResnetBlock)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto cmp = s.compare(
        *g,
        SchedulePolicy{ScheduleKind::PerLayer, sim::DataflowKind::Canonical, {}},
        &error);
    ASSERT_TRUE(cmp.has_value()) << error;
    bool beat_one = false;
    for (const ScheduleResult &r : cmp->schedules) {
        if (r.schedule.rfind("fixed:", 0) == 0 &&
            cmp->primary().cycles < r.cycles) {
            beat_one = true;
        }
    }
    EXPECT_TRUE(beat_one)
        << "per-layer must strictly beat at least one fixed dataflow";
}

TEST(Scheduler, FixedScheduleMatchesItsStandaloneEstimates)
{
    // A uniform schedule hands off concordant layouts at every edge, so
    // the standalone candidate estimates must compose exactly to the
    // measured chain (est_total == cycles, all reorder prices zero).
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    const auto fixed = s.schedule(
        *g, *eval,
        SchedulePolicy{ScheduleKind::Fixed,
                       sim::DataflowKind::WindowParallel, {}},
        &error);
    ASSERT_TRUE(fixed.has_value()) << error;
    EXPECT_EQ(fixed->est_total, fixed->cycles);
    for (const LayerChoice &l : fixed->layers) {
        EXPECT_EQ(l.reorder_cycles, 0);
        EXPECT_EQ(l.est_cycles, l.cycles);
        EXPECT_EQ(l.dataflow, sim::DataflowKind::WindowParallel);
    }
}

TEST(Scheduler, GreedyRespectsPreviousChoice)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto eval = s.evaluate(*g, &error);
    ASSERT_TRUE(eval.has_value()) << error;
    const auto greedy = s.schedule(
        *g, *eval,
        SchedulePolicy{ScheduleKind::Greedy, sim::DataflowKind::Canonical, {}},
        &error);
    ASSERT_TRUE(greedy.has_value()) << error;
    EXPECT_TRUE(greedy->bitExact());
    EXPECT_LE(greedy->layers[0].est_cycles,
              eval->layers[0][0].est_cycles)
        << "greedy starts from the cheapest first-layer candidate";
}

TEST(Scheduler, ReportIsBitIdenticalAcrossThreadCounts)
{
    const ModelGraph *g = findModel("mobilenet_slice");
    ASSERT_NE(g, nullptr);
    std::string csv1, json1;
    for (int threads : {1, 8}) {
        SchedulerOptions opts;
        opts.num_threads = threads;
        Scheduler s(opts);
        std::string error;
        const auto cmp = s.compare(
            *g,
            SchedulePolicy{ScheduleKind::PerLayer,
                           sim::DataflowKind::Canonical, {}},
            &error);
        ASSERT_TRUE(cmp.has_value()) << error;
        const ScheduleReport report{*cmp};
        if (threads == 1) {
            csv1 = golden::zeroWallCsv(report.toCsv());
            json1 = golden::zeroWallJson(report.toJson());
        } else {
            EXPECT_EQ(golden::zeroWallCsv(report.toCsv()), csv1);
            EXPECT_EQ(golden::zeroWallJson(report.toJson()), json1);
        }
    }
}

TEST(Scheduler, RejectsBadArrays)
{
    const ModelGraph *g = findModel("resnet_block");
    ASSERT_NE(g, nullptr);
    SchedulerOptions opts;
    opts.aw = 6; // not a power of two
    Scheduler s(opts);
    std::string error;
    EXPECT_FALSE(s.evaluate(*g, &error).has_value());
    EXPECT_NE(error.find("power of two"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(ModelCli, DetectsModelMode)
{
    EXPECT_TRUE(isModelInvocation({"--model", "resnet_block"}));
    EXPECT_TRUE(isModelInvocation({"--list-models"}));
    EXPECT_TRUE(isModelInvocation({"--schedule", "greedy"}));
    EXPECT_FALSE(isModelInvocation({"--workload", "gemm"}));
    EXPECT_FALSE(isModelInvocation({"--sweep", "gemm"}));
}

TEST(ModelCli, ParsesFlagsAndRejectsBadInput)
{
    const ModelCliParse ok = parseModelCli(
        {"--model", "bert_mlp", "--schedule", "greedy", "--aw", "8",
         "--ah", "4", "--seed", "7", "--jobs", "2", "--report-csv", "a.csv",
         "--report-json", "a.json"});
    ASSERT_TRUE(ok.ok()) << ok.error;
    EXPECT_EQ(ok.opts.model, "bert_mlp");
    EXPECT_EQ(ok.opts.schedule, "greedy");
    EXPECT_EQ(ok.opts.aw, 8);
    EXPECT_EQ(ok.opts.jobs, 2);

    EXPECT_FALSE(parseModelCli({"--model"}).ok());
    EXPECT_FALSE(parseModelCli({"--model", "x", "--jobs", "0"}).ok());
    EXPECT_FALSE(parseModelCli({"--model", "x", "--wat"}).ok());
    EXPECT_FALSE(parseModelCli({"--schedule", "greedy"}).ok())
        << "--schedule without --model must demand a model";
}

TEST(ModelCli, ExitCodesAreLocked)
{
    const auto run = [](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "feather_cli");
        return cliMain(int(argv.size()), argv.data());
    };
    EXPECT_EQ(run({"--list-models"}), 0);
    EXPECT_EQ(run({"--model", "bert_mlp", "--schedule", "fixed:ws"}), 0);
    EXPECT_EQ(run({"--model", "no_such_model"}), 2);
    EXPECT_EQ(run({"--model", "bert_mlp", "--schedule", "wat"}), 2);
    EXPECT_EQ(run({"--model", "bert_mlp", "--aw", "128"}), 2);
    EXPECT_EQ(run({"--model"}), 2);
}

// ---------------------------------------------------------------------------
// Schedule report schema (golden lock)
// ---------------------------------------------------------------------------

ScheduleReport
sampleReport()
{
    const ModelGraph *g = findModel("bert_mlp");
    EXPECT_NE(g, nullptr);
    Scheduler s;
    std::string error;
    const auto cmp = s.compare(
        *g,
        SchedulePolicy{ScheduleKind::PerLayer, sim::DataflowKind::Canonical, {}},
        &error);
    EXPECT_TRUE(cmp.has_value()) << error;
    return ScheduleReport{*cmp};
}

TEST(ScheduleReportSchema, CsvColumnsMatchGolden)
{
    const std::vector<std::string> golden =
        readGoldenLines("schedule_report_csv_header.golden");
    ASSERT_EQ(golden.size(), 1u);
    EXPECT_EQ(csvHeader(sampleReport().toCsv()), golden[0])
        << "schedule CSV columns are locked; update the golden file "
           "deliberately when extending the schema";
}

TEST(ScheduleReportSchema, JsonKeysMatchGolden)
{
    const std::vector<std::string> golden =
        readGoldenLines("schedule_report_json_keys.golden");
    EXPECT_EQ(jsonKeys(sampleReport().toJson()), golden)
        << "schedule JSON keys are locked; update the golden file "
           "deliberately when extending the schema";
}

} // namespace
} // namespace model
} // namespace feather
