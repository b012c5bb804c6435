// pb_layers — the traced per-layer run: times the public entry points of
// every genasmx layer on one workload's inputs, in process.
//
//   pb_layers --ref ref.fa --reads reads.fq --work DIR --probe-seconds T
//             --group-reads G --request-reads A:B --seed S
//             [--primary-only]
//
// Each probe calls one layer the way its caller in the program does:
// SimdBatchSolver (simd), the improved window solver under a counting
// memory counter (genasm), the batched windowed marches (core),
// AlignmentEngine, Mapper and the index (mapper), FastxReader and
// PafWriter (io), MappingPipeline (pipeline) and an in-process MapServer
// driven through MapClient (server). Every call is wrapped in a span
// (layer name, start, end, parent span, request id); spans stay in
// memory and are written at the end as Chrome trace-event JSON
// (DIR/trace.json, opens in Perfetto) and as a per-layer self-time table
// (DIR/self_time.tsv: a span's self time is its duration minus the part
// its child spans cover). Timed probes repeat whole passes over their
// inputs until T seconds have passed.
//
// The pipeline probe writes the PAF it maps in process to
// DIR/inprocess.paf, so the caller can compare it with genasmx_map's.
// Cross-layer agreements that the code promises are checked here and
// turn into exit code 1: batched distance == traced alignment distance
// per window and per alignment, engine == core march, server replies ==
// in-process pipeline records.
//
// Prints one JSON object of per-layer metrics on stdout.

#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/mapper/mapper.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/server/client.hpp"
#include "genasmx/server/server.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/util/prng.hpp"
#include "genasmx/util/thread_pool.hpp"

namespace {

using namespace gx;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- tracing

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  long long req = -1;  ///< request id on server spans, -1 elsewhere
  unsigned tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  int open(std::string name, int parent, long long req = -1) {
    return record(std::move(name), nowUs(), 0, parent, req);
  }

  /// Add a span whose times were taken elsewhere (end 0 = still open).
  int record(std::string name, double start_us, double end_us, int parent,
             long long req = -1) {
    if (!on_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start_us = start_us;
    s.end_us = end_us;
    s.parent = parent;
    s.req = req;
    s.tid = threadIndex();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
  }

  [[nodiscard]] double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  void close(int id) {
    if (id < 0) return;
    const double now = nowUs();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = now;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  unsigned threadIndex() {
    const auto id = std::this_thread::get_id();
    const auto it = tids_.find(id);
    if (it != tids_.end()) return it->second;
    const unsigned next = static_cast<unsigned>(tids_.size());
    tids_.emplace(id, next);
    return next;
  }

  bool on_;
  Clock::time_point t0_;
  std::mutex mu_;  ///< guards spans_ and tids_
  std::vector<Span> spans_;
  std::map<std::thread::id, unsigned> tids_;
};

/// RAII span; id() is the parent for spans opened inside it.
class Scope {
 public:
  Scope(Tracer& tr, std::string name, int parent = -1, long long req = -1)
      : tr_(tr), id_(tr.open(std::move(name), parent, req)) {}
  ~Scope() { tr_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tr_;
  int id_;
};

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

bool writeChromeTrace(const Tracer& tr, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    out << (i ? ",\n" : "") << "{\"name\":\"" << jsonEscape(s.name)
        << "\",\"cat\":\"" << jsonEscape(s.name.substr(0, s.name.find('.')))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << buf
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent;
    if (s.req >= 0) out << ",\"request\":" << s.req;
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

/// Self time per span name: each span's duration minus the union of
/// its children's intervals (clipped to the span).
bool writeSelfTimes(const Tracer& tr, const std::string& path) {
  const auto& spans = tr.spans();
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_us, s.end_us});
    }
  }
  struct Row {
    std::size_t calls = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_b = 0, cur_e = -1;
    for (auto [b, e] : iv) {
      b = std::max(b, s.start_us);
      e = std::min(e, s.end_us);
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    Row& r = rows[s.name];
    ++r.calls;
    r.total_us += s.end_us - s.start_us;
    r.self_us += (s.end_us - s.start_us) - covered;
  }
  std::ofstream out(path);
  out << "span\tcalls\ttotal_ms\tself_ms\n";
  for (const auto& [name, r] : rows) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%zu\t%.3f\t%.3f", r.calls,
                  r.total_us / 1000.0, r.self_us / 1000.0);
    out << name << '\t' << buf << '\n';
  }
  out.close();
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- helpers

double seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Repeat `pass` until `budget` seconds have passed (at least once);
/// returns passes per second.
double passesPerSecond(double budget, const std::function<void()>& pass) {
  const Clock::time_point t0 = Clock::now();
  std::size_t passes = 0;
  do {
    pass();
    ++passes;
  } while (seconds(t0) < budget);
  return static_cast<double>(passes) / seconds(t0);
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

class Metrics {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : values_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + buf;
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
};

struct Fail {
  std::string what;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw Fail{what};
}

std::string pafText(const std::vector<io::PafRecord>& recs) {
  std::string s;
  for (const auto& r : recs) s += io::toPafLine(r) + "\n";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string ref_path, reads_path, work, request_reads = "1:1";
  double probe_s = 0.5;
  std::size_t group_reads = 0, seed = 0;
  bool primary_only = false;
  cli::Parser cli;
  cli.option("--ref", ref_path);
  cli.option("--reads", reads_path);
  cli.option("--work", work);
  cli.option("--probe-seconds", probe_s);
  cli.option("--group-reads", group_reads);
  cli.option("--request-reads", request_reads);
  cli.option("--seed", seed);
  cli.flag("--primary-only", primary_only);
  std::size_t req_min = 0, req_max = 0;
  const bool parsed = cli.parse(argc, argv);
  const std::size_t colon = request_reads.find(':');
  if (!parsed || ref_path.empty() || reads_path.empty() || work.empty() ||
      group_reads == 0 || probe_s <= 0 || colon == std::string::npos ||
      !cli::parseCount(request_reads.substr(0, colon).c_str(), req_min) ||
      !cli::parseCount(request_reads.substr(colon + 1).c_str(), req_max) ||
      req_min == 0 || req_max < req_min) {
    std::fprintf(stderr,
                 "usage: pb_layers --ref FA --reads FQ --work DIR "
                 "--probe-seconds T --group-reads G --request-reads A:B "
                 "--seed S [--primary-only]\n");
    return 2;
  }

  Tracer tracer(true);
  Metrics m;
  try {
    const std::size_t nproc =
        std::max<unsigned>(1, std::thread::hardware_concurrency());

    // ---------------------------------------------------- mapper: index
    refmodel::Reference ref;
    {
      const Scope probe(tracer, "probe.index");
      ref = refmodel::referenceFromFastx(io::readFastxFile(ref_path));
      mapper::MinimizerIndex index;
      util::ThreadPool pool(nproc);
      std::vector<double> build_s, open_s;
      const mapper::MapperConfig mcfg;
      for (int rep = 0; rep < 3; ++rep) {
        const Scope s(tracer, "mapper.MinimizerIndex::build", probe.id());
        const Clock::time_point t0 = Clock::now();
        index = mapper::MinimizerIndex();
        index.build(ref, mcfg.k, mcfg.w, mcfg.max_occ, &pool);
        build_s.push_back(seconds(t0));
      }
      {
        const Scope s(tracer, "mapper.writeIndexFile", probe.id());
        mapper::writeIndexFile(work + "/layers.gxi", index, ref);
      }
      std::size_t bytes = 0;
      for (int rep = 0; rep < 3; ++rep) {
        const Scope s(tracer, "mapper.MappedIndex", probe.id());
        const Clock::time_point t0 = Clock::now();
        const mapper::MappedIndex mapped(work + "/layers.gxi");
        open_s.push_back(seconds(t0));
        bytes = mapped.fileBytes();
      }
      m.set("mapper.index_build_s", median(build_s));
      m.set("mapper.index_open_s", median(open_s));
      m.set("mapper.index_bytes", static_cast<double>(bytes));
    }
    const mapper::MappedIndex mapped(work + "/layers.gxi");

    // ------------------------------------------------------- io: FASTQ
    std::string fastq_text;
    {
      std::ifstream in(reads_path, std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      fastq_text = ss.str();
    }
    std::vector<io::FastxRecord> reads;
    {
      const Scope probe(tracer, "probe.io.fastq");
      const double pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "io.FastxReader", probe.id());
        std::istringstream in(fastq_text);
        io::FastxReader reader(in);
        std::vector<io::FastxRecord> out;
        io::FastxRecord rec;
        while (reader.next(rec)) out.push_back(rec);
        reads = std::move(out);
      });
      m.set("io.fastq_parse_mb_per_s",
            pps * static_cast<double>(fastq_text.size()) / 1e6);
    }
    require(!reads.empty(), "no reads");

    // -------------------------------------------- mapper: seed + chain
    const mapper::Mapper mapper(mapped.view());
    std::vector<std::vector<mapper::Candidate>> cands(reads.size());
    {
      const Scope probe(tracer, "probe.mapper");
      const double pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "mapper.Mapper::map", probe.id());
        for (std::size_t i = 0; i < reads.size(); ++i) {
          cands[i] = mapper.map(reads[i].seq);
        }
      });
      std::size_t total = 0;
      for (const auto& c : cands) total += c.size();
      m.set("mapper.seed_chain_reads_per_s",
            pps * static_cast<double>(reads.size()));
      m.set("mapper.candidates_per_read",
            static_cast<double>(total) / static_cast<double>(reads.size()));
    }

    // Alignment problems: each read's first four candidates (the
    // pipeline's default cap), query oriented to the candidate strand.
    const pipeline::PipelineConfig tool_cfg = [&] {
      pipeline::PipelineConfig c;
      c.engine.aligner.ksw.band = 751;
      c.emit_secondary = !primary_only;
      return c;
    }();
    std::vector<std::string> rc_reads(reads.size());
    std::vector<std::pair<std::string_view, std::string_view>> pairs;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      rc_reads[i] = common::reverseComplement(reads[i].seq);
    }
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const std::size_t n = std::min(cands[i].size(), tool_cfg.max_candidates);
      for (std::size_t c = 0; c < n; ++c) {
        pairs.push_back({mapper.candidateText(cands[i][c]),
                         cands[i][c].reverse ? rc_reads[i] : reads[i].seq});
      }
    }
    require(!pairs.empty(), "no candidates");
    const core::WindowConfig wcfg = tool_cfg.engine.aligner.window;

    // -------------------------------------------------- simd: kernels
    // W-bp windows cut along each problem's diagonal: the kernels' unit
    // of work. Bounded so the probe stays inside its time budget.
    {
      const Scope probe(tracer, "probe.simd");
      const std::size_t W = static_cast<std::size_t>(wcfg.window);
      const std::size_t tw = static_cast<std::size_t>(wcfg.textWindow());
      std::vector<simd::WindowProblem> win;
      for (const auto& [t, q] : pairs) {
        for (std::size_t off = 0;
             off + tw <= t.size() && off + W <= q.size() && win.size() < 20000;
             off += W) {
          simd::WindowProblem wp;
          wp.text = t.substr(off, tw);
          wp.pattern = q.substr(off, W);
          win.push_back(wp);
        }
      }
      require(!win.empty(), "no kernel windows");
      simd::SimdBatchSolver solver;
      std::vector<genasm::WindowResult> aligned(win.size());
      std::vector<int> dist(win.size());
      solver.alignBatch(genasm::Anchor::StartOnly, win.data(), win.size(),
                        aligned.data());
      solver.resetStats();
      const double a_pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "simd.SimdBatchSolver::alignBatch", probe.id());
        solver.alignBatch(genasm::Anchor::StartOnly, win.data(), win.size(),
                          aligned.data());
      });
      const simd::BatchStats st = solver.stats();
      const double d_pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "simd.SimdBatchSolver::solveDistanceBatch",
                      probe.id());
        solver.solveDistanceBatch(genasm::Anchor::StartOnly, win.data(),
                                  win.size(), dist.data());
      });
      for (std::size_t i = 0; i < win.size(); ++i) {
        require(aligned[i].ok == (dist[i] >= 0) &&
                    (!aligned[i].ok || aligned[i].distance == dist[i]),
                "simd: distance kernel disagrees with align kernel");
      }
      const double n = static_cast<double>(win.size());
      m.set("simd.align_windows_per_s", a_pps * n);
      m.set("simd.distance_windows_per_s", d_pps * n);
      m.set("simd.lane_occupancy",
            static_cast<double>(st.lanes_filled) /
                static_cast<double>(std::max<std::uint64_t>(1, st.lane_slots)));
      m.set("simd.packing_efficiency",
            static_cast<double>(st.useful_words) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, st.packed_words)));
    }

    // Bounded problem subset for the scalar-speed probes (genasm, core,
    // engine): about 4000 windows' worth of alignments.
    std::size_t n_sub = 0;
    for (std::size_t win_sum = 0; n_sub < pairs.size() && win_sum < 4000;
         ++n_sub) {
      win_sum += pairs[n_sub].second.size() /
                     static_cast<std::size_t>(wcfg.window - wcfg.overlap) +
                 1;
    }

    // --------------------------------------- genasm: DP memory traffic
    {
      const Scope probe(tracer, "probe.genasm");
      util::MemStats ms;
      for (std::size_t i = 0; i < std::min<std::size_t>(n_sub, 64); ++i) {
        const Scope s(tracer, "genasm.alignWindowedImproved", probe.id());
        (void)core::alignWindowedImproved(pairs[i].first, pairs[i].second,
                                          wcfg, core::ImprovedOptions::all(),
                                          &ms);
      }
      m.set("genasm.dp_accesses_per_window",
            static_cast<double>(ms.accesses()) /
                static_cast<double>(std::max<std::uint64_t>(1, ms.problems)));
      m.set("genasm.dp_bytes_peak", static_cast<double>(ms.bytes_peak));
    }

    // ------------------------------------------- core: windowed march
    std::vector<common::AlignmentResult> march(n_sub);
    {
      const Scope probe(tracer, "probe.core");
      std::vector<core::BatchedAlignRequest> areq;
      std::vector<core::BatchedDistanceRequest> dreq;
      for (std::size_t i = 0; i < n_sub; ++i) {
        areq.push_back({pairs[i].first, pairs[i].second});
        dreq.push_back({pairs[i].first, pairs[i].second, -1});
      }
      simd::SimdBatchSolver solver;
      core::WindowedBatchScratch scratch;
      core::alignWindowedBatch(solver, wcfg, areq.data(), areq.size(),
                               march.data(), scratch);
      const std::uint64_t allocs_warm =
          solver.scratchAllocs() + scratch.allocs();
      solver.resetStats();
      core::alignWindowedBatch(solver, wcfg, areq.data(), areq.size(),
                               march.data(), scratch);
      m.set("core.steady_scratch_allocs",
            static_cast<double>(solver.scratchAllocs() + scratch.allocs() -
                                allocs_warm));
      m.set("core.windows_per_alignment",
            static_cast<double>(solver.stats().lanes_filled) /
                static_cast<double>(n_sub));
      const double a_pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "core.alignWindowedBatch", probe.id());
        core::alignWindowedBatch(solver, wcfg, areq.data(), areq.size(),
                                 march.data(), scratch);
      });
      std::vector<int> dist(n_sub);
      const double d_pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "core.distanceWindowedBatch", probe.id());
        core::distanceWindowedBatch(solver, wcfg, dreq.data(), dreq.size(),
                                    dist.data(), scratch);
      });
      for (std::size_t i = 0; i < n_sub; ++i) {
        require(march[i].ok == (dist[i] >= 0) &&
                    (!march[i].ok || march[i].edit_distance == dist[i]),
                "core: distance march disagrees with align march");
      }
      m.set("core.align_march_per_s", a_pps * static_cast<double>(n_sub));
      m.set("core.distance_march_per_s", d_pps * static_cast<double>(n_sub));
    }

    // ---------------------------------------------------------- engine
    {
      const Scope probe(tracer, "probe.engine");
      std::vector<engine::AlignmentTask> atasks;
      std::vector<engine::DistanceTask> dtasks;
      for (std::size_t i = 0; i < n_sub; ++i) {
        atasks.push_back({pairs[i].first, pairs[i].second});
        dtasks.push_back({pairs[i].first, pairs[i].second, -1});
      }
      engine::AlignmentEngine eng(tool_cfg.engine);
      engine::EngineConfig one_cfg = tool_cfg.engine;
      one_cfg.threads = 1;
      engine::AlignmentEngine one(one_cfg);
      std::vector<common::AlignmentResult> res;
      const double a_pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "engine.AlignmentEngine::alignBatch",
                      probe.id());
        res = eng.alignBatch(atasks);
      });
      for (std::size_t i = 0; i < n_sub; ++i) {
        require(res[i].ok == march[i].ok &&
                    res[i].edit_distance == march[i].edit_distance &&
                    res[i].cigar == march[i].cigar,
                "engine: alignBatch disagrees with the core march");
      }
      const double d_pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "engine.AlignmentEngine::distanceBatch",
                      probe.id());
        (void)eng.distanceBatch(dtasks);
      });
      const double one_pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "engine.AlignmentEngine::alignBatch[1t]",
                      probe.id());
        (void)one.alignBatch(atasks);
      });
      const double n = static_cast<double>(n_sub);
      m.set("engine.align_tasks_per_s", a_pps * n);
      m.set("engine.distance_tasks_per_s", d_pps * n);
      m.set("engine.scaling_efficiency",
            a_pps / (static_cast<double>(eng.threads()) * one_pps));
      m.set("engine.task_failures",
            static_cast<double>(eng.taskFailures() + eng.batchFaults() +
                                one.taskFailures() + one.batchFaults()));
    }

    // -------------------------------------------------------- pipeline
    // Batches of the tool's 256 reads give the batch throughput and the
    // PAF compared with genasmx_map; batches of G reads (a coalesced
    // server group's worth) give the per-batch latency.
    std::string inproc_paf;
    std::vector<io::PafRecord> inproc_records;
    double pipeline_rps = 0;
    {
      const Scope probe(tracer, "probe.pipeline");
      pipeline::MappingPipeline pipe(mapped.view(), tool_cfg);
      const std::size_t B = tool_cfg.batch_reads;
      std::vector<std::vector<io::FastxRecord>> batches;
      for (std::size_t i = 0; i < reads.size(); i += B) {
        batches.emplace_back(reads.begin() + static_cast<long>(i),
                             reads.begin() + static_cast<long>(
                                                 std::min(i + B, reads.size())));
      }
      for (const auto& b : batches) {
        for (auto& r : pipe.mapBatch(b)) inproc_records.push_back(std::move(r));
      }
      inproc_paf = pafText(inproc_records);
      // Untraced and traced passes alternate so drift hits both alike.
      Tracer off(false);
      double on_s = 0, off_s = 0, cpu = 0;
      std::size_t on_n = 0, off_n = 0;
      const Clock::time_point t_all = Clock::now();
      do {
        for (Tracer* tr : {&off, &tracer}) {
          const double cpu0 = cpuSeconds();
          const Clock::time_point t0 = Clock::now();
          {
            const Scope pass(*tr, "pipeline.pass", probe.id());
            for (const auto& b : batches) {
              const Scope s(*tr, "pipeline.MappingPipeline::mapBatch",
                            pass.id());
              (void)pipe.mapBatch(b);
            }
          }
          const double dt = seconds(t0);
          cpu += cpuSeconds() - cpu0;
          (tr == &off ? off_s : on_s) += dt;
          ++(tr == &off ? off_n : on_n);
        }
      } while (seconds(t_all) < 2 * probe_s);
      const double n = static_cast<double>(reads.size());
      pipeline_rps = n * static_cast<double>(off_n) / off_s;
      const double traced_rps = n * static_cast<double>(on_n) / on_s;
      m.set("pipeline.reads_per_s", pipeline_rps);
      m.set("pipeline.core_utilization",
            cpu / ((off_s + on_s) * static_cast<double>(nproc)));
      m.set("trace.overhead_frac", 1.0 - traced_rps / pipeline_rps);

      std::vector<double> batch_ms;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0;
           i < reads.size() && (batch_ms.size() < 20 || seconds(t0) < probe_s);
           i += group_reads) {
        const std::vector<io::FastxRecord> g(
            reads.begin() + static_cast<long>(i),
            reads.begin() +
                static_cast<long>(std::min(i + group_reads, reads.size())));
        const Clock::time_point tb = Clock::now();
        {
          const Scope s(tracer, "pipeline.MappingPipeline::mapBatch[group]",
                        probe.id());
          (void)pipe.mapBatch(g);
        }
        batch_ms.push_back(1000.0 * seconds(tb));
      }
      m.set("pipeline.batch_ms_p50", median(batch_ms));
    }
    {
      std::ofstream out(work + "/inprocess.paf", std::ios::binary);
      out << inproc_paf;
      require(static_cast<bool>(out), "cannot write inprocess.paf");
    }

    // ------------------------------------------------------------- io: PAF
    {
      const Scope probe(tracer, "probe.io.paf");
      std::size_t bytes = 0;
      const double pps = passesPerSecond(probe_s, [&] {
        const Scope s(tracer, "io.PafWriter", probe.id());
        std::ostringstream os;
        io::PafWriter writer(os);
        for (const auto& r : inproc_records) writer.write(r);
        writer.close();
        bytes = os.str().size();
      });
      m.set("io.paf_write_mb_per_s", pps * static_cast<double>(bytes) / 1e6);
    }

    // ---------------------------------------------------------- server
    // An in-process MapServer at genasmx_mapd's defaults (one worker, the
    // engine pool on every core) behind a Unix socket. Requests carry
    // A..B consecutive reads, all sent at once over nproc pipelined
    // connections: the saturated rate. The admission queue holds every
    // request so none is shed.
    {
      const Scope probe(tracer, "probe.server");
      server::ServerConfig scfg;
      scfg.unix_path = work + "/layers.sock";
      scfg.pipeline = tool_cfg;
      scfg.max_queue = reads.size() + 16;
      server::MapServer srv(mapped.view(), scfg);
      srv.start();
      std::thread serve_thread([&] { srv.serve(); });
      struct Stop {
        server::MapServer& srv;
        std::thread& t;
        ~Stop() {
          srv.requestDrain();
          if (t.joinable()) t.join();
        }
      } stop{srv, serve_thread};

      server::MapClient ping_client;
      require(ping_client.connectUnix(scfg.unix_path).ok(), "connect");
      std::vector<double> rtt;
      for (int i = 0; i < 200; ++i) {
        const Scope s(tracer, "server.MapClient::ping", probe.id());
        const Clock::time_point t0 = Clock::now();
        require(ping_client.ping().ok(), "ping failed");
        rtt.push_back(1e6 * seconds(t0));
      }
      m.set("server.ping_rtt_us_p50", median(rtt));

      // Expected reply per request: the in-process records of its reads.
      std::vector<std::string> per_read(reads.size());
      {
        std::size_t r = 0, pos = 0;
        while (pos < inproc_paf.size()) {
          const std::size_t eol = inproc_paf.find('\n', pos);
          const std::string line = inproc_paf.substr(pos, eol + 1 - pos);
          const std::string qname = line.substr(0, line.find('\t'));
          while (r < reads.size() && reads[r].name != qname) ++r;
          require(r < reads.size(), "in-process PAF out of read order");
          per_read[r] += line;
          pos = eol + 1;
        }
      }
      struct Req {
        std::size_t start, count;
        std::string frame;
      };
      std::vector<Req> reqs;
      util::Xoshiro256 rng(seed);
      for (std::size_t i = 0; i < reads.size();) {
        const std::size_t c = std::min<std::size_t>(
            reads.size() - i,
            static_cast<std::size_t>(
                rng.range(static_cast<std::int64_t>(req_min),
                          static_cast<std::int64_t>(req_max))));
        std::string payload;
        for (std::size_t k = i; k < i + c; ++k) {
          payload += "@" + reads[k].name + "\n" + reads[k].seq + "\n+\n" +
                     reads[k].qual + "\n";
        }
        reqs.push_back({i, c,
                        "MAP id=" + std::to_string(reqs.size()) +
                            " bytes=" + std::to_string(payload.size()) + "\n" +
                            payload});
        i += c;
      }
      const std::size_t nconn = std::min(nproc, reqs.size());
      std::vector<server::MapClient> conns(nconn);
      for (auto& c : conns) {
        require(c.connectUnix(scfg.unix_path).ok(), "connect");
      }
      std::vector<double> sent_us(reqs.size(), 0), done_us(reqs.size(), 0);
      std::vector<std::string> bodies(reqs.size());
      std::vector<char> ok(reqs.size(), 0);
      const Clock::time_point t0 = Clock::now();
      std::vector<std::thread> workers;
      for (std::size_t c = 0; c < nconn; ++c) {
        workers.emplace_back([&, c] {
          server::ResponseHeader h;
          std::string body;
          for (std::size_t i = c; i < reqs.size(); i += nconn) {
            if (!conns[c].readReply(h, body).ok()) return;
            const std::size_t id = std::stoull(h.id);
            if (id >= reqs.size()) return;
            done_us[id] = tracer.nowUs();
            ok[id] = h.ok ? 1 : 0;
            bodies[id] = body;
          }
        });
      }
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        sent_us[i] = tracer.nowUs();
        if (!conns[i % nconn].sendRaw(reqs[i].frame).ok()) {
          for (auto& c : conns) ::shutdown(c.fd(), SHUT_RDWR);
          break;
        }
      }
      for (auto& w : workers) w.join();
      const double wall = seconds(t0);
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        tracer.record("server.request", sent_us[i], done_us[i], probe.id(),
                      static_cast<long long>(i));
      }
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        std::string want;
        for (std::size_t k = reqs[i].start;
             k < reqs[i].start + reqs[i].count; ++k) {
          want += per_read[k];
        }
        require(ok[i] == 1, "server: request failed");
        require(bodies[i] == want,
                "server: reply differs from the in-process pipeline");
      }
      const double server_rps = static_cast<double>(reads.size()) / wall;
      m.set("server.efficiency", server_rps / pipeline_rps);
    }
  } catch (const Fail& f) {
    std::fprintf(stderr, "pb_layers: check failed: %s\n", f.what.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_layers: error: %s\n", e.what());
    return 1;
  }

  if (!writeChromeTrace(tracer, work + "/trace.json") ||
      !writeSelfTimes(tracer, work + "/self_time.tsv")) {
    std::fprintf(stderr, "pb_layers: cannot write trace output\n");
    return 1;
  }
  std::printf("%s\n", m.json().c_str());
  return 0;
}
