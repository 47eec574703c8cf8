// Distributed split inference (DESIGN.md Section 15): link timelines, slice
// partitioning, coordinator-worker byte identity, fault recovery, the
// N-series run verifier and net.* metrics.
#include "net/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "common/error.h"
#include "core/runtime.h"
#include "net/link.h"
#include "net/partition.h"
#include "tensor/tensor.h"
#include "trace/metrics.h"
#include "verify/diagnostics.h"

namespace ulayer {
namespace {

using fault::FaultPlan;
using net::ClusterSpec;
using net::Coordinator;
using net::Link;
using net::LinkSpec;
using net::MakeEvenPlan;
using net::MakeUniformCluster;
using net::MessageRecord;
using net::NetPlan;
using net::NetRunResult;
using net::SliceBoundaries;
using net::SliceRecord;

// --- Link timeline -----------------------------------------------------------

TEST(LinkTest, BusyTimelineIsDeterministicAndHalfDuplex) {
  LinkSpec spec;
  spec.gb_per_s = 1.0;  // 1e3 bytes per us.
  spec.latency_us = 100.0;
  spec.mtu_bytes = 1000;
  spec.per_packet_us = 1.0;
  Link link(spec);

  // 2500 bytes: 3 fragments, occupancy 3 * 1.0 + 2500 / 1e3 = 5.5us.
  const net::Delivery first = link.Send(0.0, 2500);
  EXPECT_DOUBLE_EQ(first.depart_us, 0.0);
  EXPECT_EQ(first.frags, 3);
  EXPECT_DOUBLE_EQ(first.occupancy_us, 5.5);
  EXPECT_DOUBLE_EQ(first.arrive_us, 105.5);

  // Half-duplex: the next send queues behind the occupancy (not the arrival —
  // propagation does not hold the link).
  const net::Delivery second = link.Send(0.0, 500);
  EXPECT_DOUBLE_EQ(second.depart_us, 5.5);
  EXPECT_DOUBLE_EQ(second.occupancy_us, 1.5);
  EXPECT_DOUBLE_EQ(second.arrive_us, 107.0);

  // A sender that is not ready yet departs at its ready time.
  const net::Delivery third = link.Send(200.0, 100);
  EXPECT_DOUBLE_EQ(third.depart_us, 200.0);
  EXPECT_DOUBLE_EQ(third.arrive_us, 201.1 + 100.0);

  link.Reset();
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
  const net::Delivery again = link.Send(0.0, 2500);
  EXPECT_DOUBLE_EQ(again.arrive_us, first.arrive_us) << "same sequence, same timeline";
}

// --- Slice boundaries --------------------------------------------------------

TEST(SliceBoundariesTest, AlwaysPartitionsTheChannelRange) {
  const int64_t channel_counts[] = {1, 2, 3, 7, 16, 100};
  const std::vector<std::vector<double>> fraction_sets = {
      {1.0}, {0.5, 0.5}, {0.3, 0.3, 0.4}, {0.5, 0.0, 0.5}, {0.1, 0.9}, {0.25, 0.25, 0.25, 0.25}};
  for (int64_t c : channel_counts) {
    for (const auto& fractions : fraction_sets) {
      const std::vector<int64_t> bounds = SliceBoundaries(c, fractions);
      ASSERT_EQ(bounds.size(), fractions.size() + 1);
      EXPECT_EQ(bounds.front(), 0);
      EXPECT_EQ(bounds.back(), c) << "the last boundary closes the partition";
      for (size_t i = 1; i < bounds.size(); ++i) {
        EXPECT_LE(bounds[i - 1], bounds[i]);
      }
    }
  }
  // A zero fraction yields an empty slice, not a gap.
  const std::vector<int64_t> with_hole = SliceBoundaries(8, {0.5, 0.0, 0.5});
  EXPECT_EQ(with_hole[1], with_hole[2]);
  // All-zero fractions signal "coordinator computes": no slice reaches C.
  const std::vector<int64_t> none = SliceBoundaries(8, {0.0, 0.0});
  EXPECT_EQ(none.back(), 0);
  // Unnormalized fractions renormalize.
  EXPECT_EQ(SliceBoundaries(10, {2.0, 2.0}), SliceBoundaries(10, {0.5, 0.5}));
}

TEST(NetPlanTest, MakeEvenPlanSplitsEverySplittableNode) {
  const Model m = MakeLeNet5();
  const NetPlan plan = MakeEvenPlan(m.graph, 3);
  ASSERT_EQ(plan.fractions.size(), static_cast<size_t>(m.graph.size()));
  EXPECT_TRUE(plan.fractions[0].empty()) << "input stays on the coordinator";
  int split = 0;
  for (const Node& node : m.graph.nodes()) {
    const auto& row = plan.fractions[static_cast<size_t>(node.id)];
    if (row.empty()) {
      continue;
    }
    ++split;
    ASSERT_EQ(row.size(), 3u);
    for (double f : row) {
      EXPECT_DOUBLE_EQ(f, 1.0 / 3.0);
    }
  }
  EXPECT_GT(split, 0);
  EXPECT_NE(plan.ToString().find("channel plan"), std::string::npos);
}

// --- Coordinator: clean runs -------------------------------------------------

struct NetHarness {
  Model model;
  PreparedModel pm;
  Tensor input;

  explicit NetHarness(ExecConfig config = ExecConfig::AllF32())
      : model(MakeMaterialized()), pm(model, config), input(model.graph.node(0).out_shape,
                                                           DType::kF32) {
    if (config.storage == DType::kQUInt8) {
      std::vector<Tensor> calib;
      for (int i = 0; i < 2; ++i) {
        Tensor t(model.graph.node(0).out_shape, DType::kF32);
        FillUniform(t, 0xca11 + static_cast<uint64_t>(i));
        calib.push_back(std::move(t));
      }
      pm.Calibrate(calib);
    }
    FillUniform(input, 0x5eed);
  }

  static Model MakeMaterialized() {
    Model m = MakeLeNet5();
    m.MaterializeWeights();
    return m;
  }
};

TEST(NetCoordinatorTest, CleanRunIsByteIdenticalAcrossNodeCountsAndToTheExecutor) {
  NetHarness h;
  // Ground truth: the single-SoC executor on an all-CPU plan (the same
  // deterministic kernels the coordinator and every worker run).
  Executor ex(h.pm, MakeExynos7420());
  const Plan local = MakeSingleProcessorPlan(h.model.graph, ProcKind::kCpu);
  const RunResult want = ex.Run(local, &h.input);
  ASSERT_TRUE(want.output.has_value());

  uint64_t first_digest = 0;
  for (int n : {1, 2, 3, 4}) {
    const ClusterSpec cluster = MakeUniformCluster(n);
    Coordinator coord(h.pm, cluster);
    const NetRunResult r = coord.Run(MakeEvenPlan(h.model.graph, n), &h.input);
    ASSERT_TRUE(r.output.has_value()) << n;
    ASSERT_EQ(r.output->SizeBytes(), want.output->SizeBytes());
    EXPECT_EQ(std::memcmp(r.output->raw(), want.output->raw(),
                          static_cast<size_t>(r.output->SizeBytes())),
              0)
        << "distribution across " << n << " nodes changed the bytes";
    if (n == 1) {
      first_digest = r.output_digest;
    }
    EXPECT_EQ(r.output_digest, first_digest) << n;
    EXPECT_FALSE(r.degradation.degraded());
    EXPECT_GT(r.latency_us, 0.0);
    if (n >= 2) {
      EXPECT_GT(r.wire_messages, 0) << "the even plan must put workers to work";
    }
    const Report rep = net::VerifyNetRun(h.model.graph, cluster, r);
    EXPECT_TRUE(rep.ok()) << rep.ToString();
  }
}

TEST(NetCoordinatorTest, QuantizedRunIsByteIdenticalAcrossNodeCounts) {
  NetHarness h(ExecConfig::ProcessorFriendly());
  uint64_t first_digest = 0;
  for (int n : {1, 3}) {
    Coordinator coord(h.pm, MakeUniformCluster(n));
    const NetRunResult r = coord.Run(MakeEvenPlan(h.model.graph, n), &h.input);
    ASSERT_TRUE(r.output.has_value());
    if (n == 1) {
      first_digest = r.output_digest;
    }
    EXPECT_EQ(r.output_digest, first_digest);
  }
}

TEST(NetCoordinatorTest, TimingOnlyRunPricesTheSameMessagesAsTheFunctionalRun) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(3);
  const NetPlan plan = MakeEvenPlan(h.model.graph, 3);
  const FaultPlan faults = FaultPlan::Parse("seed=7;net.link@id:0@call:1=drop");

  Coordinator coord(h.pm, cluster);
  coord.SetFaultPlan(faults);
  const NetRunResult timing = coord.Run(plan);
  const NetRunResult functional = coord.Run(plan, &h.input);

  EXPECT_FALSE(timing.output.has_value());
  ASSERT_TRUE(functional.output.has_value());
  // Identical message sequences -> identical fault draws and latency: the
  // timing run predicts the functional one exactly.
  EXPECT_DOUBLE_EQ(timing.latency_us, functional.latency_us);
  EXPECT_EQ(timing.wire_messages, functional.wire_messages);
  EXPECT_EQ(timing.wire_bytes, functional.wire_bytes);
  ASSERT_EQ(timing.messages.size(), functional.messages.size());
  for (size_t i = 0; i < timing.messages.size(); ++i) {
    EXPECT_EQ(timing.messages[i].bytes, functional.messages[i].bytes) << i;
    EXPECT_EQ(timing.messages[i].attempts, functional.messages[i].attempts) << i;
    EXPECT_DOUBLE_EQ(timing.messages[i].arrive_us, functional.messages[i].arrive_us) << i;
  }
  ASSERT_EQ(timing.degradation.events.size(), functional.degradation.events.size());
}

TEST(NetCoordinatorTest, RunRejectsAMisshapenPlan) {
  NetHarness h;
  Coordinator coord(h.pm, MakeUniformCluster(2));
  NetPlan bad = MakeEvenPlan(h.model.graph, 2);
  bad.fractions.pop_back();
  EXPECT_THROW(coord.Run(bad, &h.input), Error);
  // A pipeline plan cannot be Run() and a channel plan cannot be pipelined.
  const net::NetPartitioner part(h.model.graph, coord.cluster());
  EXPECT_THROW(coord.Run(part.BuildPipeline(2)), Error);
  EXPECT_THROW(coord.RunPipeline(MakeEvenPlan(h.model.graph, 2), 4), Error);
  EXPECT_THROW(coord.RunPipeline(part.BuildPipeline(2), 0), Error);
}

// --- Fault recovery ----------------------------------------------------------

TEST(NetFaultTest, WorkerDeathReroutesAndStaysByteIdentical) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(3);
  const NetPlan plan = MakeEvenPlan(h.model.graph, 3);
  Coordinator coord(h.pm, cluster);
  const NetRunResult clean = coord.Run(plan, &h.input);

  coord.SetFaultPlan(FaultPlan::Parse("seed=7;net.worker@id:1=death"));
  const NetRunResult r = coord.Run(plan, &h.input);
  EXPECT_EQ(r.output_digest, clean.output_digest) << "recovery must not change bytes";
  EXPECT_TRUE(r.degradation.degraded());
  EXPECT_GE(r.degradation.worker_deaths, 1);
  EXPECT_GE(r.degradation.reroutes, 1);
  EXPECT_GE(r.degradation.heartbeat_timeouts, 1);
  ASSERT_EQ(r.worker_alive.size(), 3u);
  EXPECT_FALSE(r.worker_alive[1]);
  EXPECT_TRUE(std::isfinite(r.death_us[1]));
  EXPECT_GT(r.latency_us, clean.latency_us) << "the damage shows up in latency only";
  bool rerouted = false;
  for (const SliceRecord& s : r.slices) {
    rerouted = rerouted || s.rerouted;
    if (s.worker == 1 && s.delivered) {
      EXPECT_LE(s.end_us, r.death_us[1] + 1e-6);
    }
  }
  EXPECT_TRUE(rerouted);
  const Report rep = net::VerifyNetRun(h.model.graph, cluster, r);
  EXPECT_TRUE(rep.ok()) << rep.ToString();
}

TEST(NetFaultTest, DroppedMessagesAreRetransmittedWithBackoff) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(2);
  const NetPlan plan = MakeEvenPlan(h.model.graph, 2);
  Coordinator coord(h.pm, cluster);
  const NetRunResult clean = coord.Run(plan, &h.input);

  coord.SetFaultPlan(FaultPlan::Parse("seed=7;net.link@id:0@call:1=drop"));
  const NetRunResult r = coord.Run(plan, &h.input);
  EXPECT_EQ(r.output_digest, clean.output_digest);
  EXPECT_EQ(r.degradation.retransmits, 1);
  EXPECT_EQ(r.degradation.reroutes, 0) << "one drop never loses the worker";
  ASSERT_FALSE(r.messages.empty());
  EXPECT_EQ(r.messages[0].worker, 0);
  EXPECT_EQ(r.messages[0].attempts, 2);
  EXPECT_TRUE(r.messages[0].delivered);
  EXPECT_GT(r.latency_us, clean.latency_us);
  // The lost attempt still paid wire bytes.
  EXPECT_GT(r.wire_bytes, clean.wire_bytes);
  EXPECT_TRUE(net::VerifyNetRun(h.model.graph, cluster, r).ok());
}

TEST(NetFaultTest, PersistentDropExhaustsRetransmitsAndLosesTheWorker) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(2);
  const NetPlan plan = MakeEvenPlan(h.model.graph, 2);
  Coordinator coord(h.pm, cluster);
  const NetRunResult clean = coord.Run(plan, &h.input);

  coord.SetFaultPlan(FaultPlan::Parse("seed=7;net.link@id:0=drop"));
  const NetRunResult r = coord.Run(plan, &h.input);
  EXPECT_EQ(r.output_digest, clean.output_digest);
  EXPECT_FALSE(r.worker_alive[0]);
  EXPECT_TRUE(r.worker_alive[1]);
  EXPECT_GE(r.degradation.reroutes, 1);
  for (const MessageRecord& m : r.messages) {
    EXPECT_LE(m.attempts, cluster.max_retransmits + 1) << "bounded backoff";
    if (m.worker == 0) {
      EXPECT_FALSE(m.delivered);
    }
  }
  EXPECT_TRUE(net::VerifyNetRun(h.model.graph, cluster, r).ok());
}

TEST(NetFaultTest, PartitionTakesTheLinkDownForTheRun) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(3);
  const NetPlan plan = MakeEvenPlan(h.model.graph, 3);
  Coordinator coord(h.pm, cluster);
  const NetRunResult clean = coord.Run(plan, &h.input);

  coord.SetFaultPlan(FaultPlan::Parse("seed=9;net.link@id:0=partition"));
  const NetRunResult r = coord.Run(plan, &h.input);
  EXPECT_EQ(r.output_digest, clean.output_digest);
  EXPECT_GE(r.degradation.partitions, 1);
  EXPECT_FALSE(r.worker_alive[0]);
  // After the partition fires nothing more is sent on link 0 — the run
  // records at most the partitioned attempt.
  double last_send = -1.0;
  for (const MessageRecord& m : r.messages) {
    if (m.worker == 0) {
      last_send = std::max(last_send, m.send_us);
      EXPECT_FALSE(m.delivered);
    }
  }
  EXPECT_TRUE(net::VerifyNetRun(h.model.graph, cluster, r).ok());
}

TEST(NetFaultTest, SameSeedAndSpecYieldIdenticalTraces) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(3);
  const NetPlan plan = MakeEvenPlan(h.model.graph, 3);
  Coordinator coord(h.pm, cluster);
  coord.SetFaultPlan(
      FaultPlan::Parse("seed=11;net.link@id:0@prob:0.4=drop;net.worker@id:2=death"));
  const NetRunResult a = coord.Run(plan, &h.input);
  const NetRunResult b = coord.Run(plan, &h.input);
  EXPECT_DOUBLE_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.output_digest, b.output_digest);
  ASSERT_EQ(a.degradation.events.size(), b.degradation.events.size());
  for (size_t i = 0; i < a.degradation.events.size(); ++i) {
    EXPECT_EQ(a.degradation.events[i].ToString(), b.degradation.events[i].ToString()) << i;
  }
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].attempts, b.messages[i].attempts) << i;
    EXPECT_DOUBLE_EQ(a.messages[i].arrive_us, b.messages[i].arrive_us) << i;
  }
  // The degradation report renders its events.
  EXPECT_NE(a.degradation.ToString().find("degraded"), std::string::npos);
}

// --- VerifyNetRun negative cases ---------------------------------------------

class NetVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = MakeUniformCluster(2);
    Coordinator coord(harness_.pm, cluster_);
    clean_ = coord.Run(MakeEvenPlan(harness_.model.graph, 2), &harness_.input);
    ASSERT_TRUE(net::VerifyNetRun(harness_.model.graph, cluster_, clean_).ok());
  }

  // Index of a delivered worker slice (the mutation target).
  size_t WorkerSliceIndex() const {
    for (size_t i = 0; i < clean_.slices.size(); ++i) {
      if (clean_.slices[i].worker >= 0 && clean_.slices[i].delivered) {
        return i;
      }
    }
    ADD_FAILURE() << "no worker slices in the clean run";
    return 0;
  }

  NetHarness harness_;
  ClusterSpec cluster_;
  NetRunResult clean_;
};

TEST_F(NetVerifyTest, MissingSliceRaisesCoverage) {
  NetRunResult r = clean_;
  r.slices.erase(r.slices.begin() + static_cast<int64_t>(WorkerSliceIndex()));
  const Report rep = net::VerifyNetRun(harness_.model.graph, cluster_, r);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.Has(DiagCode::kNetSliceCoverage));
}

TEST_F(NetVerifyTest, DuplicateSliceRaisesDoubleDelivery) {
  NetRunResult r = clean_;
  r.slices.push_back(r.slices[WorkerSliceIndex()]);
  const Report rep = net::VerifyNetRun(harness_.model.graph, cluster_, r);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.Has(DiagCode::kNetDoubleDelivery));
}

TEST_F(NetVerifyTest, OutOfRangeSliceRaisesCoverage) {
  NetRunResult r = clean_;
  SliceRecord& s = r.slices[WorkerSliceIndex()];
  s.c_end = harness_.model.graph.node(s.node).out_shape.c + 5;
  const Report rep = net::VerifyNetRun(harness_.model.graph, cluster_, r);
  EXPECT_TRUE(rep.Has(DiagCode::kNetSliceCoverage));
}

TEST_F(NetVerifyTest, AttemptCountPastTheBoundRaisesRetransmitMismatch) {
  NetRunResult r = clean_;
  ASSERT_FALSE(r.messages.empty());
  r.messages[0].attempts = cluster_.max_retransmits + 2;
  const Report rep = net::VerifyNetRun(harness_.model.graph, cluster_, r);
  EXPECT_TRUE(rep.Has(DiagCode::kNetRetransmitMismatch));
}

TEST_F(NetVerifyTest, UnaccountedRetransmitsRaiseRetransmitMismatch) {
  NetRunResult r = clean_;
  r.degradation.retransmits += 3;  // The report claims more than the messages.
  const Report rep = net::VerifyNetRun(harness_.model.graph, cluster_, r);
  EXPECT_TRUE(rep.Has(DiagCode::kNetRetransmitMismatch));
}

TEST_F(NetVerifyTest, MalformedMessagesRaiseMessageInvalid) {
  {
    NetRunResult r = clean_;
    r.messages[0].frags += 1;
    EXPECT_TRUE(net::VerifyNetRun(harness_.model.graph, cluster_, r)
                    .Has(DiagCode::kNetMessageInvalid));
  }
  {
    NetRunResult r = clean_;
    r.messages[0].worker = 99;
    EXPECT_TRUE(net::VerifyNetRun(harness_.model.graph, cluster_, r)
                    .Has(DiagCode::kNetMessageInvalid));
  }
  {
    NetRunResult r = clean_;
    r.messages[0].arrive_us = r.messages[0].send_us;  // Beats the speed of light.
    EXPECT_TRUE(net::VerifyNetRun(harness_.model.graph, cluster_, r)
                    .Has(DiagCode::kNetMessageInvalid));
  }
}

TEST_F(NetVerifyTest, ActivityPastADeathRaisesDeadWorkerActivity) {
  NetRunResult r = clean_;
  const SliceRecord& s = r.slices[WorkerSliceIndex()];
  r.worker_alive[static_cast<size_t>(s.worker)] = false;
  r.death_us[static_cast<size_t>(s.worker)] = s.end_us - 1.0;
  const Report rep = net::VerifyNetRun(harness_.model.graph, cluster_, r);
  EXPECT_TRUE(rep.Has(DiagCode::kNetDeadWorkerActivity));
}

// --- Pipeline ----------------------------------------------------------------

TEST(NetPipelineTest, StreamedItemsOverlapAcrossStages) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(2);
  const net::NetPartitioner part(h.model.graph, cluster);
  const NetPlan plan = part.BuildPipeline(2);
  ASSERT_EQ(plan.kind, net::NetPlanKind::kPipeline);
  Coordinator coord(h.pm, cluster);

  const net::PipelineResult one = coord.RunPipeline(plan, 1);
  const net::PipelineResult many = coord.RunPipeline(plan, 8);
  EXPECT_EQ(many.items, 8);
  EXPECT_GT(many.makespan_us, one.makespan_us);
  // Pipelining overlaps stages: 8 items cost far less than 8 serial runs.
  EXPECT_LT(many.makespan_us, 8.0 * one.makespan_us);
  EXPECT_GT(many.bottleneck_us, 0.0);
  EXPECT_NEAR(many.throughput_per_s, 8.0 / many.makespan_us * 1e6, 1e-6);
  EXPECT_GT(many.wire_bytes, 0);
  // Steady state: each extra item costs at least the bottleneck stage.
  EXPECT_GE(many.makespan_us - one.makespan_us, 7.0 * many.bottleneck_us - 1e-6);
}

// --- Metrics -----------------------------------------------------------------

TEST(NetMetricsTest, AddNetRunFoldsCountersAndHistograms) {
  NetHarness h;
  const ClusterSpec cluster = MakeUniformCluster(2);
  const NetPlan plan = MakeEvenPlan(h.model.graph, 2);
  Coordinator coord(h.pm, cluster);
  coord.SetFaultPlan(FaultPlan::Parse("seed=7;net.link@id:0@call:1=drop"));
  const NetRunResult r = coord.Run(plan, &h.input);

  trace::MetricsRegistry m;
  net::AddNetRun(m, r);
  EXPECT_EQ(m.counter("net.runs"), 1);
  EXPECT_EQ(m.counter("net.messages"), r.wire_messages);
  EXPECT_EQ(m.counter("net.bytes"), r.wire_bytes);
  EXPECT_EQ(m.counter("net.retransmits"), 1);
  EXPECT_EQ(m.counter("net.drops"), 1);
  EXPECT_EQ(m.counter("net.faults_injected"), r.degradation.faults_injected);
  const std::string text = m.ToString();
  EXPECT_NE(text.find("net.latency_us"), std::string::npos);
  EXPECT_NE(text.find("net.msg_bytes"), std::string::npos);
  net::AddNetRun(m, r);
  EXPECT_EQ(m.counter("net.runs"), 2) << "counters aggregate across runs";
}

}  // namespace
}  // namespace ulayer
