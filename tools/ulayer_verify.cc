// ulayer_verify: run the static Graph/Plan verifiers from the command line.
//
// Verifies a model (zoo name or ulayer-graph text file) and a plan (the
// partitioner's, a single-processor baseline's, or a ulayer-plan text file)
// and prints every diagnostic to stderr (stdout carries only the --print-plan
// dump, so it pipes cleanly). Exit status: 0 when clean (warnings allowed),
// 1 when any error-severity diagnostic fired, 2 on usage/parse problems.
//
// Examples:
//   ulayer_verify --model vgg16
//   ulayer_verify --model googlenet --soc 7880 --config pf
//   ulayer_verify --graph net.graph --plan net.plan --config qu8
//   ulayer_verify --model mobilenet --single gpu --print-plan
//   ulayer_verify --model googlenet --faults "gpu.kernel@call:3=device-lost"

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "baselines/baselines.h"
#include "common/error.h"
#include "core/executor.h"
#include "core/partitioner.h"
#include "core/predictor.h"
#include "core/runtime.h"
#include "fault/fault.h"
#include "io/io.h"
#include "models/model.h"
#include "net/coordinator.h"
#include "serve/request.h"
#include "serve/server.h"
#include "soc/timing.h"
#include "trace/chrome.h"
#include "trace/metrics.h"
#include "verify/verify.h"

namespace {

using namespace ulayer;

constexpr const char* kUsage = R"(usage: ulayer_verify [options]

Model selection (one of):
  --model <name>    zoo model: lenet5 alexnet vgg16 googlenet squeezenet
                    mobilenet resnet18 resnet50 inceptionv3
  --graph <file>    ulayer-graph v1 text file (see GraphToText)

Plan selection (default: the partitioner's plan):
  --plan <file>     ulayer-plan v1 text file (see PlanToText)
  --single cpu|gpu  single-processor baseline plan
  --l2p             layer-to-processor baseline plan

Options:
  --soc 7420|7880   SoC preset the plan targets (default 7420)
  --config f32|f16|qu8|pf
                    execution config (default f32; pf = processor-friendly)
  --threads <n>     CPU thread budget assumed for simulated CPU kernel time
                    (default 0 = full CPU cluster; functional runs also honor
                    the ULAYER_CPU_THREADS environment variable)
  --print-plan      dump the plan being verified (ulayer-plan v1)
  --graph-only      verify the graph and stop (no plan)
  --analyze         additionally run the static memory-access analyzer
                    (src/analysis, A5xx/A6xx/A7xx codes): packs the
                    activation pool exactly as the executor would and proves
                    race/liveness/chunking invariants of this plan over it.
                    Weight-free — works on bare zoo graphs
  --faults <spec>   after verifying, run a timing-only simulation with this
                    fault-injection spec (fault/fault.h grammar, same as the
                    ULAYER_FAULTS environment variable) and print the
                    resulting DegradationReport to stdout. Examples:
                      gpu.kernel@call:3=enqueue-failed
                      seed=42;gpu.any@prob:0.1=timeout:500
                      gpu.kernel=slow:2.5
  --trace-out <file>
                    run a traced timing-only simulation (composes with
                    --faults), check the trace invariants (T4xx codes) and
                    write Chrome trace-event JSON to <file> — loadable in
                    Perfetto (ui.perfetto.dev) or chrome://tracing
  --metrics         as above, but aggregate three runs into a metrics
                    registry and print it plus the predicted-vs-simulated
                    drift table to stdout
  --metrics-out <file>
                    like --metrics, writing the registry as JSON to <file>
  --serve-smoke     ignore model/plan flags and run a small functional
                    serving smoke: a deterministic LeNet-5 request trace
                    through the multi-tenant server (src/serve), printing the
                    batch log and per-request completion log (with FNV-1a
                    output digests) to stdout. The output is byte-identical
                    at any ULAYER_CPU_THREADS value — CI diffs two runs
  --net-smoke       ignore plan flags and run a functional distributed smoke
                    over a simulated cluster (src/net): partition --model
                    (default lenet5) across --net-nodes workers, execute
                    through the fault-tolerant coordinator (composes with
                    --faults: net.link / net.worker rules inject drops,
                    delays, partitions and worker deaths), check the N-series
                    run invariants (N8xx codes) and print the run summary,
                    degradation report and FNV-1a output digest to stdout.
                    The digest line is byte-identical at any node count,
                    thread count or recoverable fault spec — CI diffs them
  --net-nodes <n>   worker count for --net-smoke (default 2)
  --adapt           ignore plan flags and run the closed adaptation loop
                    (timing-only) over a committed throttle ramp: 4 clean
                    baseline runs, 6 runs under the --faults spec (default
                    gpu.kernel=slow:2.5), 8 clean recovery runs. Drives an
                    adaptive runtime (drift-fed predictor corrections +
                    health-keyed plan cache) against a static one pinned to
                    its profile-time plan, prints per-run latencies, the
                    correction table, plan-cache statistics and the H-series
                    verdicts (H9xx codes). Exits 1 on an H-series error or
                    when the recovery does not restore the baseline plan.
                    The output is byte-identical at any ULAYER_CPU_THREADS
                    value — CI diffs two runs
  -h, --help        this text
)";

[[noreturn]] void UsageError(const std::string& msg) {
  std::cerr << "ulayer_verify: " << msg << "\n\n" << kUsage;
  std::exit(2);
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    UsageError("cannot open '" + path + "'");
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

Model MakeZooModel(const std::string& name) {
  if (name == "lenet5") return MakeLeNet5();
  if (name == "alexnet") return MakeAlexNet();
  if (name == "vgg16") return MakeVgg16();
  if (name == "googlenet") return MakeGoogLeNet();
  if (name == "squeezenet") return MakeSqueezeNetV11();
  if (name == "mobilenet") return MakeMobileNetV1();
  if (name == "resnet18") return MakeResNet18();
  if (name == "resnet50") return MakeResNet50();
  if (name == "inceptionv3") return MakeInceptionV3();
  UsageError("unknown model '" + name + "'");
}

ExecConfig MakeConfig(const std::string& name) {
  if (name == "f32") return ExecConfig::AllF32();
  if (name == "f16") return ExecConfig::AllF16();
  if (name == "qu8") return ExecConfig::AllQU8();
  if (name == "pf") return ExecConfig::ProcessorFriendly();
  UsageError("unknown config '" + name + "' (want f32|f16|qu8|pf)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_name;
  std::string graph_path;
  std::string plan_path;
  std::string single_proc;
  std::string soc_name = "7420";
  std::string config_name = "f32";
  std::string faults_spec;
  bool run_faults = false;
  std::string trace_out;
  std::string metrics_out;
  bool metrics = false;
  int cpu_threads = 0;
  bool l2p = false;
  bool print_plan = false;
  bool graph_only = false;
  bool analyze = false;
  bool serve_smoke = false;
  bool net_smoke = false;
  bool adapt_smoke = false;
  int node_count = 2;

  auto next_arg = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      UsageError(std::string(flag) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--model") {
      model_name = next_arg(i, "--model");
    } else if (a == "--graph") {
      graph_path = next_arg(i, "--graph");
    } else if (a == "--plan") {
      plan_path = next_arg(i, "--plan");
    } else if (a == "--single") {
      single_proc = next_arg(i, "--single");
    } else if (a == "--l2p") {
      l2p = true;
    } else if (a == "--soc") {
      soc_name = next_arg(i, "--soc");
    } else if (a == "--config") {
      config_name = next_arg(i, "--config");
    } else if (a == "--threads") {
      try {
        cpu_threads = std::stoi(next_arg(i, "--threads"));
      } catch (const std::exception&) {
        UsageError("--threads wants an integer");
      }
      if (cpu_threads < 0) {
        UsageError("--threads wants a non-negative integer");
      }
    } else if (a == "--faults") {
      faults_spec = next_arg(i, "--faults");
      run_faults = true;
    } else if (a.rfind("--faults=", 0) == 0) {
      faults_spec = a.substr(std::string("--faults=").size());
      run_faults = true;
    } else if (a == "--trace-out") {
      trace_out = next_arg(i, "--trace-out");
    } else if (a.rfind("--trace-out=", 0) == 0) {
      trace_out = a.substr(std::string("--trace-out=").size());
    } else if (a == "--metrics") {
      metrics = true;
    } else if (a == "--metrics-out") {
      metrics_out = next_arg(i, "--metrics-out");
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      metrics_out = a.substr(std::string("--metrics-out=").size());
    } else if (a == "--print-plan") {
      print_plan = true;
    } else if (a == "--graph-only") {
      graph_only = true;
    } else if (a == "--analyze") {
      analyze = true;
    } else if (a == "--serve-smoke") {
      serve_smoke = true;
    } else if (a == "--net-smoke") {
      net_smoke = true;
    } else if (a == "--adapt") {
      adapt_smoke = true;
    } else if (a == "--net-nodes") {
      try {
        node_count = std::stoi(next_arg(i, "--net-nodes"));
      } catch (const std::exception&) {
        UsageError("--net-nodes wants an integer");
      }
      if (node_count <= 0) {
        UsageError("--net-nodes wants a positive integer");
      }
    } else if (a == "-h" || a == "--help") {
      std::cout << kUsage;
      return 0;
    } else {
      UsageError("unknown argument '" + a + "'");
    }
  }
  // --- Serving smoke (--serve-smoke) -----------------------------------------
  if (serve_smoke) {
    ExecConfig config = MakeConfig(config_name);
    config.cpu_threads = cpu_threads;
    SocSpec soc;
    if (soc_name == "7420") {
      soc = MakeExynos7420();
    } else if (soc_name == "7880") {
      soc = MakeExynos7880();
    } else {
      UsageError("unknown SoC '" + soc_name + "' (want 7420|7880)");
    }
    try {
      serve::ServerOptions opts;
      opts.cache.batch_sizes = {1, 2, 4};
      opts.cache.lanes = 2;
      opts.cache.functional = true;  // Real tensor math -> output digests.
      opts.queue_capacity = 16;
      serve::Server server(soc, config, opts);
      server.RegisterModel("lenet5");
      if (run_faults) {
        server.SetFaultPlan(fault::FaultPlan::Parse(faults_spec));
      }
      serve::TraceSpec spec;
      spec.seed = 7;
      spec.num_requests = 24;
      spec.models = {"lenet5"};
      spec.sessions = 4;
      // 4x the batch=1 saturation rate with tight interactive deadlines:
      // forces multi-request batches and some shedding, so the smoke
      // exercises both outcome paths.
      const double service1 = server.cache().ServiceUs("lenet5", 1);
      spec.duration_us = 24.0 * service1 / 4.0;
      spec.interactive_deadline_us = 5.0 * service1;
      spec.batch_deadline_us = 25.0 * service1;
      const serve::ServeReport rep = server.Run(serve::GenerateTrace(spec));
      std::cout << rep.BatchLog() << rep.CompletionLog();
      std::cout << "serve-smoke lenet5 (soc " << soc.name << ", config " << config_name
                << "): completed " << rep.completed << ", shed " << rep.shed
                << ", deadline-met " << rep.deadline_met << ", mean batch "
                << rep.MeanBatchSize() << "\n";
      return 0;
    } catch (const Error& e) {
      std::cerr << "ulayer_verify: serve-smoke failed (" << ErrorCodeName(e.code())
                << "): " << e.what() << "\n";
      return 1;
    }
  }

  // --- Distributed smoke (--net-smoke) ---------------------------------------
  if (net_smoke) {
    ExecConfig config = MakeConfig(config_name);
    config.cpu_threads = cpu_threads;
    fault::FaultPlan fault_plan;
    if (run_faults) {
      try {
        fault_plan = fault::FaultPlan::Parse(faults_spec);
      } catch (const Error& e) {
        std::cerr << "ulayer_verify: bad --faults spec: " << e.what() << "\n";
        return 2;
      }
    }
    try {
      Model model = MakeZooModel(model_name.empty() ? "lenet5" : model_name);
      model.MaterializeWeights();
      PreparedModel prepared(model, config);
      if (config.storage == DType::kQUInt8) {
        std::vector<Tensor> calib;
        for (int i = 0; i < 2; ++i) {
          Tensor t(model.graph.node(0).out_shape, DType::kF32);
          FillUniform(t, 0xca11 + static_cast<uint64_t>(i));
          calib.push_back(std::move(t));
        }
        prepared.Calibrate(calib);
      }
      const net::ClusterSpec cluster = net::MakeUniformCluster(node_count);
      const net::NetPartitioner partitioner(model.graph, cluster);
      // The even plan guarantees every worker participates on every
      // splittable layer — the latency-optimal plan may keep a small model
      // local, which would leave the fault machinery unexercised.
      const net::NetPlan plan = net::MakeEvenPlan(model.graph, node_count);
      net::Coordinator coord(prepared, cluster);
      if (run_faults) {
        coord.SetFaultPlan(std::move(fault_plan));
      }
      Tensor input(model.graph.node(0).out_shape, DType::kF32);
      FillUniform(input, 0x5eed);
      const net::NetRunResult r = coord.Run(plan, &input);

      const Report net_report = net::VerifyNetRun(model.graph, cluster, r);
      std::cerr << "net (" << model.name << ", " << node_count << " nodes, config "
                << config_name << "): " << r.messages.size() << " messages, "
                << net_report.error_count() << " errors, " << net_report.warning_count()
                << " warnings\n";
      if (!net_report.diagnostics().empty()) {
        std::cerr << net_report.ToString();
      }
      if (!net_report.ok()) {
        return 1;
      }

      // The digest line intentionally omits node count / latency: CI diffs it
      // verbatim across --net-nodes values, thread counts and fault specs.
      std::ostringstream digest;
      digest << std::hex << r.output_digest;
      std::cout << "net-smoke " << model.name << " (config " << config_name
                << "): digest 0x" << digest.str() << "\n";
      std::cout << "net-smoke " << node_count << " nodes: latency " << r.latency_us
                << " us, " << r.wire_messages << " messages, " << r.wire_bytes
                << " wire bytes\n";
      std::cout << plan.ToString() << "\n" << r.degradation.ToString() << "\n";

      if (metrics || !metrics_out.empty()) {
        trace::MetricsRegistry registry;
        net::AddNetRun(registry, r);
        if (metrics) {
          std::cout << registry.ToString();
        }
        if (!metrics_out.empty()) {
          std::ofstream f(metrics_out);
          if (!f) {
            UsageError("cannot write '" + metrics_out + "'");
          }
          f << registry.ToJson();
          std::cerr << "metrics written to " << metrics_out << "\n";
        }
      }

      // Throughput-oriented pipeline partitioning over the same cluster
      // (timing-only, fault-free by contract).
      const net::NetPlan pipe = partitioner.BuildPipeline(node_count);
      const net::PipelineResult pr = coord.RunPipeline(pipe, 8);
      std::cout << "net-pipeline " << pipe.stage_worker.size() << " stages, " << pr.items
                << " items: makespan " << pr.makespan_us << " us, bottleneck "
                << pr.bottleneck_us << " us, throughput " << pr.throughput_per_s
                << "/s\n";
      return 0;
    } catch (const Error& e) {
      std::cerr << "ulayer_verify: net-smoke failed (" << ErrorCodeName(e.code())
                << "): " << e.what() << "\n";
      return 1;
    }
  }

  // --- Adaptation loop smoke (--adapt) ---------------------------------------
  if (adapt_smoke) {
    ExecConfig config = MakeConfig(config_name);
    config.cpu_threads = cpu_threads;
    SocSpec soc;
    if (soc_name == "7420") {
      soc = MakeExynos7420();
    } else if (soc_name == "7880") {
      soc = MakeExynos7880();
    } else {
      UsageError("unknown SoC '" + soc_name + "' (want 7420|7880)");
    }
    const std::string spec = run_faults ? faults_spec : "gpu.kernel=slow:2.5";
    fault::FaultPlan throttle;
    try {
      throttle = fault::FaultPlan::Parse(spec);
    } catch (const Error& e) {
      std::cerr << "ulayer_verify: bad --faults spec: " << e.what() << "\n";
      return 2;
    }
    try {
      const Model model = MakeZooModel(model_name.empty() ? "googlenet" : model_name);
      ULayerRuntime::Options aopts;
      aopts.config = config;
      ULayerRuntime adaptive(model, soc, aopts);
      ULayerRuntime::Options sopts;
      sopts.config = config;
      sopts.degradation_replan = false;
      ULayerRuntime static_rt(model, soc, sopts);
      const std::string baseline_plan = PlanToText(adaptive.plan(), model.graph);

      std::cout << "adapt " << model.name << " (soc " << soc.name << ", config "
                << config_name << "): throttle spec \"" << spec << "\"\n";
      const auto phase = [&](const char* name, const fault::FaultPlan& plan, int runs) {
        adaptive.SetFaultPlan(plan);
        static_rt.SetFaultPlan(plan);
        for (int i = 0; i < runs; ++i) {
          char line[160];
          const double a = adaptive.Run().latency_us;
          const double s = static_rt.Run().latency_us;
          std::snprintf(line, sizeof(line),
                        "  %-8s run %d: adaptive %12.1f us  static %12.1f us  dev %.4f  %s",
                        name, i, a, s, adaptive.last_relative_deviation(),
                        std::string(RunModeName(adaptive.mode())).c_str());
          std::cout << line << "\n";
        }
      };
      phase("baseline", fault::FaultPlan(), 4);
      const size_t throttle_begin = adaptive.drift_history().size();
      phase("throttle", throttle, 6);
      const size_t throttle_end = adaptive.drift_history().size();
      phase("recovery", fault::FaultPlan(), 8);

      std::cout << "correction table:\n" << adaptive.predictor().corrections().ToString()
                << "\n";
      const PlanCacheStats cs = adaptive.plan_cache().stats();
      std::cout << "plan cache: " << cs.hits << " hits, " << cs.misses << " misses, "
                << cs.insertions << " insertions, " << cs.evictions << " evictions; "
                << adaptive.partitioner_builds() << " partitioner builds, "
                << adaptive.replans() << " replans\n";
      const bool restored = PlanToText(adaptive.plan(), model.graph) == baseline_plan;
      std::cout << "plan restored to baseline: " << (restored ? "yes" : "no") << "\n";

      Report report = VerifyCorrectionTable(adaptive.predictor().corrections());
      report.Merge(VerifyPlanCache(model.graph, adaptive.plan_cache(), adaptive.config()));
      const std::vector<double> throttle_devs(
          adaptive.drift_history().begin() + static_cast<long>(throttle_begin),
          adaptive.drift_history().begin() + static_cast<long>(throttle_end));
      report.Merge(VerifyDriftConvergence(throttle_devs, 0.05));
      std::cerr << "adapt (" << model.name << ", config " << config_name
                << "): " << report.error_count() << " errors, " << report.warning_count()
                << " warnings\n";
      if (!report.diagnostics().empty()) {
        std::cerr << report.ToString();
      }
      return report.ok() && restored ? 0 : 1;
    } catch (const Error& e) {
      std::cerr << "ulayer_verify: adapt smoke failed (" << ErrorCodeName(e.code())
                << "): " << e.what() << "\n";
      return 1;
    }
  }

  if (model_name.empty() == graph_path.empty()) {
    UsageError("pick exactly one of --model / --graph");
  }
  if (static_cast<int>(!plan_path.empty()) + static_cast<int>(!single_proc.empty()) +
          static_cast<int>(l2p) >
      1) {
    UsageError("pick at most one of --plan / --single / --l2p");
  }

  ExecConfig config = MakeConfig(config_name);
  config.cpu_threads = cpu_threads;
  SocSpec soc;
  if (soc_name == "7420") {
    soc = MakeExynos7420();
  } else if (soc_name == "7880") {
    soc = MakeExynos7880();
  } else {
    UsageError("unknown SoC '" + soc_name + "' (want 7420|7880)");
  }

  // --- Graph -----------------------------------------------------------------
  Model model;
  std::string source;
  if (!model_name.empty()) {
    model = MakeZooModel(model_name);
    source = model.name;
  } else {
    try {
      model.graph = GraphFromText(ReadFile(graph_path));
    } catch (const ParseError& e) {
      std::cerr << "ulayer_verify: parse error in '" << graph_path << "': " << e.what() << "\n";
      return 2;
    }
    model.name = source = graph_path;
  }

  const Report graph_report = VerifyGraph(model.graph);
  std::cerr << "graph " << source << ": " << model.graph.size() << " nodes, "
            << graph_report.error_count() << " errors, " << graph_report.warning_count()
            << " warnings\n";
  if (!graph_report.diagnostics().empty()) {
    std::cerr << graph_report.ToString();
  }
  if (graph_only) {
    return graph_report.ok() ? 0 : 1;
  }
  if (!graph_report.ok()) {
    // A broken graph makes plan diagnostics unreliable; stop here.
    return 1;
  }

  // --- Plan ------------------------------------------------------------------
  const TimingModel timing(soc);
  Plan plan;
  std::string plan_source;
  if (!plan_path.empty()) {
    try {
      plan = PlanFromText(ReadFile(plan_path), model.graph);
    } catch (const ParseError& e) {
      std::cerr << "ulayer_verify: parse error in '" << plan_path << "': " << e.what() << "\n";
      return 2;
    }
    plan_source = plan_path;
  } else if (!single_proc.empty()) {
    if (single_proc != "cpu" && single_proc != "gpu") {
      UsageError("--single wants cpu|gpu");
    }
    plan = MakeSingleProcessorPlan(model.graph,
                                   single_proc == "cpu" ? ProcKind::kCpu : ProcKind::kGpu);
    plan_source = "single-" + single_proc;
  } else {
    const LatencyPredictor predictor(timing, config, {&model.graph});
    if (l2p) {
      plan = MakeLayerToProcessorPlan(model.graph, timing, config, predictor);
      plan_source = "layer-to-processor";
    } else {
      plan = Partitioner(model.graph, timing, config, predictor).Build();
      plan_source = "partitioner";
    }
  }

  if (print_plan) {
    std::cout << PlanToText(plan, model.graph);
  }

  Report plan_report = VerifyPlan(model.graph, plan, config);
  plan_report.Merge(VerifyAccumulatorBounds(model.graph, config));
  std::cerr << "plan " << plan_source << " (soc " << soc.name << ", config " << config_name
            << "): " << plan_report.error_count() << " errors, " << plan_report.warning_count()
            << " warnings\n";
  if (!plan_report.diagnostics().empty()) {
    std::cerr << plan_report.ToString();
  }
  if (!plan_report.ok()) {
    return 1;
  }

  // --- Static memory-access analysis (--analyze) -----------------------------
  if (analyze) {
    try {
      const PreparedModel prepared(model, config);
      const Report analysis_report = analysis::AnalyzePlan(prepared, plan);
      std::cerr << "analysis " << source << " (plan " << plan_source << ", config "
                << config_name << "): " << analysis_report.error_count() << " errors, "
                << analysis_report.warning_count() << " warnings\n";
      if (!analysis_report.diagnostics().empty()) {
        std::cerr << analysis_report.ToString();
      }
      if (!analysis_report.ok()) {
        return 1;
      }
    } catch (const Error& e) {
      std::cerr << "ulayer_verify: analysis failed (" << ErrorCodeName(e.code())
                << "): " << e.what() << "\n";
      return 1;
    }
  }

  // --- Simulation (--faults / --trace-out / --metrics) -----------------------
  const bool want_trace = !trace_out.empty() || metrics || !metrics_out.empty();
  if (run_faults || want_trace) {
    fault::FaultPlan fault_plan;
    if (run_faults) {
      try {
        fault_plan = fault::FaultPlan::Parse(faults_spec);
      } catch (const Error& e) {
        std::cerr << "ulayer_verify: bad --faults spec: " << e.what() << "\n";
        return 2;
      }
    }
    try {
      config.trace = want_trace;
      PreparedModel prepared(model, config);
      Executor executor(prepared, soc);
      if (run_faults) {
        executor.SetFaultPlan(std::move(fault_plan));
      }
      RunResult r = executor.Run(plan);
      if (run_faults) {
        std::cout << "fault simulation (" << source << ", plan " << plan_source << ", soc "
                  << soc.name << "): latency " << r.latency_us << " us\n"
                  << r.degradation.ToString();
      }
      if (want_trace) {
        const Report trace_report = VerifyRunTrace(r.run_trace);
        std::cerr << "trace (" << source << ", plan " << plan_source << "): "
                  << r.run_trace.spans.size() << " spans, " << trace_report.error_count()
                  << " errors, " << trace_report.warning_count() << " warnings\n";
        if (!trace_report.diagnostics().empty()) {
          std::cerr << trace_report.ToString();
        }
        if (!trace_report.ok()) {
          return 1;
        }
        if (!trace_out.empty()) {
          trace::ChromeExportOptions opts;
          opts.graph = &model.graph;
          opts.model = source;
          opts.soc = soc.name;
          opts.config = config_name;
          std::ofstream f(trace_out);
          if (!f) {
            UsageError("cannot write '" + trace_out + "'");
          }
          f << trace::ChromeTraceJson(r.run_trace, opts);
          std::cerr << "trace written to " << trace_out << "\n";
        }
        if (metrics || !metrics_out.empty()) {
          // Aggregate three runs — deterministic simulation, so the spread is
          // zero, but the reuse path (RunInto) is the one CI exercises.
          trace::MetricsRegistry registry;
          registry.AddRun(r.run_trace);
          for (int i = 0; i < 2; ++i) {
            executor.RunInto(plan, nullptr, r);
            registry.AddRun(r.run_trace);
          }
          if (metrics) {
            std::cout << registry.ToString();
            std::cout << trace::BuildDriftReport(r.run_trace).ToString(&model.graph);
          }
          if (!metrics_out.empty()) {
            std::ofstream f(metrics_out);
            if (!f) {
              UsageError("cannot write '" + metrics_out + "'");
            }
            f << registry.ToJson();
            std::cerr << "metrics written to " << metrics_out << "\n";
          }
        }
      }
    } catch (const Error& e) {
      std::cerr << "ulayer_verify: simulation failed ("
                << ErrorCodeName(e.code()) << "): " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
