// The failure-isolation fault matrix: every io seam driven through the
// deterministic FaultPlan (truncated index at every section boundary,
// FASTQ corrupted and truncated mid-record, failing output writes), the
// structured error taxonomy, thread-pool exception propagation, and the
// engine's per-task degradation under a throwing backend. The invariants
// throughout: one-line actionable errors (never a crash), correct skip/
// failure counts, and untouched results in every lane a fault did not
// hit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "genasmx/common/error.hpp"
#include "genasmx/engine/engine.hpp"
#include "genasmx/engine/registry.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/io/fault.hpp"
#include "genasmx/io/mmap_file.hpp"
#include "genasmx/io/paf.hpp"
#include "genasmx/mapper/index.hpp"
#include "genasmx/mapper/index_io.hpp"
#include "genasmx/pipeline/pipeline.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/util/thread_pool.hpp"

namespace gx {
namespace {

using common::Error;
using common::ErrorCode;

void expectOneLine(const std::string& what) {
  EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  EXPECT_FALSE(what.empty());
}

// ------------------------------------------------------------ taxonomy

TEST(ErrorModel, RendersOneActionableLine) {
  common::ErrorContext ctx;
  ctx.path = "reads.fq";
  ctx.record = "read_17";
  ctx.line = 69;
  ctx.byte_offset = 4096;
  const Error e(ErrorCode::kMalformedInput, "quality length mismatch", ctx);
  const std::string what = e.what();
  expectOneLine(what);
  EXPECT_NE(what.find("quality length mismatch"), std::string::npos);
  EXPECT_NE(what.find("malformed-input"), std::string::npos);
  EXPECT_NE(what.find("reads.fq"), std::string::npos);
  EXPECT_NE(what.find("read_17"), std::string::npos);
  EXPECT_NE(what.find("69"), std::string::npos);
  EXPECT_NE(what.find("4096"), std::string::npos);
  EXPECT_EQ(e.code(), ErrorCode::kMalformedInput);
}

TEST(ErrorModel, StatusFromCurrentExceptionKeepsTheCode) {
  auto capture = [](auto thrower) {
    try {
      thrower();
    } catch (...) {
      return common::Status::fromCurrentException();
    }
    return common::Status{};
  };
  EXPECT_EQ(capture([] {
              throw Error(ErrorCode::kIoFatal, "disk gone");
            }).code(),
            ErrorCode::kIoFatal);
  EXPECT_EQ(capture([] { throw std::bad_alloc(); }).code(),
            ErrorCode::kResourceLimit);
  EXPECT_EQ(capture([] { throw std::runtime_error("foreign"); }).code(),
            ErrorCode::kInternal);
  EXPECT_EQ(capture([] { throw 42; }).code(), ErrorCode::kInternal);
  EXPECT_TRUE(capture([] {}).ok());
}

TEST(ErrorModel, CountsIndexByCodeAndExcludeOk) {
  common::ErrorCounts counts;
  counts.add(ErrorCode::kMalformedInput, 3);
  counts.add(ErrorCode::kIoFatal);
  EXPECT_EQ(counts[ErrorCode::kMalformedInput], 3u);
  EXPECT_EQ(counts[ErrorCode::kIoFatal], 1u);
  EXPECT_EQ(counts.total(), 4u);
  counts.add(ErrorCode::kOk, 100);  // never part of total()
  EXPECT_EQ(counts.total(), 4u);
}

// ------------------------------------------------------- fault grammar

TEST(FaultPlanParse, AcceptsTheDocumentedGrammar) {
  const io::FaultPlan plan = io::FaultPlan::parse(
      "truncate@4096,eio@rec:17,truncate@map:128,enospc@out:2,"
      "eintr@out:0,eagain@out:1,short@out:3,eio@out:4,truncate@in:9000");
  EXPECT_EQ(plan.clauses().size(), 9u);
  EXPECT_EQ(plan.inputTruncateAt(), 4096u);  // smallest of 4096/9000
  EXPECT_TRUE(plan.inputRecordEio(17));
  EXPECT_FALSE(plan.inputRecordEio(16));
  EXPECT_EQ(plan.mapTruncateAt(), 128u);
  EXPECT_EQ(plan.outputFault(2, 0), io::FaultKind::kEnospc);
  EXPECT_EQ(plan.outputFault(2, 1), io::FaultKind::kEnospc);  // persistent
  EXPECT_EQ(plan.outputFault(0, 0), io::FaultKind::kEintr);
  EXPECT_EQ(plan.outputFault(0, 1), io::FaultKind::kNone);  // transient
  EXPECT_EQ(plan.outputFault(3, 0), io::FaultKind::kShortWrite);
  EXPECT_EQ(plan.outputFault(4, 1), io::FaultKind::kEio);  // persistent
  EXPECT_EQ(plan.outputFault(99, 0), io::FaultKind::kNone);
  EXPECT_TRUE(io::FaultPlan::parse("").empty());
  EXPECT_TRUE(io::FaultPlan::parse("  ").empty());
}

TEST(FaultPlanParse, RejectsBadSpecsWithTheGrammarInTheMessage) {
  for (const char* bad :
       {"frobnicate@4096", "truncate", "truncate@", "eio@rec:",
        "truncate@out:4", "enospc@rec:1", "eio@4096", "truncate@in:huge",
        "truncate@in:99999999999999999999999", "eintr@out:1x"}) {
    try {
      (void)io::FaultPlan::parse(bad);
      FAIL() << "accepted bad spec: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformedInput) << bad;
      expectOneLine(e.what());
    }
  }
}

// -------------------------------------------------- pool propagation

TEST(ThreadPoolFaults, TaskExceptionSurfacesInWaitIdleAndPoolSurvives) {
  util::ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
    done += static_cast<int>(e - b);
  });
  EXPECT_EQ(done.load(), 64);

  // A throwing chunk must not terminate the process (the pre-layer
  // behaviour); parallel_for rethrows the first exception instead.
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 0) {
                                     throw Error(ErrorCode::kInternal,
                                                 "injected task failure");
                                   }
                                 }),
               Error);

  // The pool remains fully usable: the error does not wedge in_flight_
  // and does not resurface on the next wait.
  done = 0;
  pool.parallel_for(32, [&](std::size_t b, std::size_t e) {
    done += static_cast<int>(e - b);
  });
  EXPECT_EQ(done.load(), 32);
}

// --------------------------------------------- index section boundaries

std::string tempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string builtIndexBytes() {
  refmodel::Reference ref;
  readsim::GenomeConfig gcfg;
  gcfg.length = 30'000;
  gcfg.seed = 7;
  ref.addContig("ctgA", readsim::generateGenome(gcfg));
  gcfg.length = 20'000;
  gcfg.seed = 8;
  ref.addContig("ctgB", readsim::generateGenome(gcfg));
  mapper::MinimizerIndex index;
  index.build(ref, 15, 10, 64);
  const std::string path = tempPath("faults.gxi");
  mapper::writeIndexFile(path, index, ref);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::byte> toBytes(const std::string& s, std::size_t n) {
  std::vector<std::byte> out(n);
  if (n != 0) std::memcpy(out.data(), s.data(), n);
  return out;
}

TEST(IndexFaults, TruncationAtEverySectionBoundaryRejectsCleanly) {
  const std::string bytes = builtIndexBytes();
  mapper::IndexFileHeader h{};
  std::memcpy(&h, bytes.data(), sizeof(h));
  ASSERT_EQ(h.file_bytes, bytes.size());

  // Every section boundary the format defines, plus one byte inside the
  // header and one byte short of complete: all must reject with a
  // one-line IndexIoError, never crash or read out of bounds.
  const std::vector<std::uint64_t> cuts = {
      0,          64,         sizeof(h),      h.kept_off, h.names_off,
      h.seq_off,  h.keys_off, h.values_off,   h.file_bytes - 1};
  for (const std::uint64_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    try {
      const mapper::MappedIndex idx(
          io::MappedFile::fromBytes(
              toBytes(bytes, static_cast<std::size_t>(cut))),
          {}, "cut@" + std::to_string(cut));
      FAIL() << "accepted index truncated at " << cut;
    } catch (const mapper::IndexIoError& e) {
      expectOneLine(e.what());
      const std::string what = e.what();
      // Sub-header cuts report truncation; longer cuts report the
      // size/declared mismatch. Both are actionable.
      EXPECT_TRUE(what.find("truncated") != std::string::npos ||
                  what.find("does not match") != std::string::npos)
          << "cut " << cut << ": " << what;
      EXPECT_NE(what.find("cut@" + std::to_string(cut)), std::string::npos)
          << what;
    }
  }

  // The untruncated bytes load fine through the same in-memory seam.
  const mapper::MappedIndex ok(
      io::MappedFile::fromBytes(toBytes(bytes, bytes.size())), {}, "whole");
  EXPECT_EQ(ok.view().size(), h.n_entries);
}

TEST(IndexFaults, MapTruncateFaultClampsRealFileOpens) {
  const std::string bytes = builtIndexBytes();
  const std::string path = tempPath("faults.gxi");  // written above
  const io::ScopedFaultInjection guard(
      io::FaultPlan::parse("truncate@map:" + std::to_string(bytes.size() / 2)));
  try {
    const mapper::MappedIndex idx(path);
    FAIL() << "accepted a fault-truncated mapping";
  } catch (const mapper::IndexIoError& e) {
    expectOneLine(e.what());
    EXPECT_NE(std::string(e.what()).find("does not match"), std::string::npos);
  }
}

// ------------------------------------------------------- fastx faults

std::string fastqText(const std::vector<std::pair<std::string, std::string>>&
                          reads) {
  std::string text;
  for (const auto& [name, seq] : reads) {
    text += "@" + name + "\n" + seq + "\n+\n" + std::string(seq.size(), 'I') +
            "\n";
  }
  return text;
}

TEST(FastxFaults, AbortPolicyReportsLineAndByteOffset) {
  // Record 2's quality line is short; its header line is line 5, and the
  // quality line itself is line 8.
  const std::string text =
      "@r1\nACGTACGT\n+\nIIIIIIII\n"
      "@r2\nACGTACGTACGT\n+\nIII\n";
  std::istringstream in(text);
  io::FastxPolicy policy;
  policy.path = "clients.fq";
  io::FastxReader reader(in, policy);
  io::FastxRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.name, "r1");
  try {
    (void)reader.next(rec);
    FAIL() << "expected malformed-input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedInput);
    expectOneLine(e.what());
    EXPECT_EQ(e.context().path, "clients.fq");
    EXPECT_EQ(e.context().record, "r2");
    EXPECT_EQ(e.context().line, 8u);  // the offending quality line
    EXPECT_EQ(e.context().byte_offset, text.rfind("III\n"));
    EXPECT_NE(std::string(e.what()).find("quality length 3"),
              std::string::npos);
  }
}

TEST(FastxFaults, SkipPolicyResyncsPastEveryMalformedClass) {
  // Interleave good records with: a quality-length mismatch, a header
  // with no sequence, junk between records, and a record truncated after
  // '+'. The reader must return exactly the good records, in order.
  const std::string text =
      "@good1\nACGTACGT\n+\nIIIIIIII\n"
      "@bad_qual\nACGTACGT\n+\nII\n"
      "@good2\nCCCCAAAA\n+\nIIIIIIII\n"
      "not_a_header_line\n"
      "@good3\nGGGGTTTT\n+\nIIIIIIII\n"
      "@bad_truncated\nACGT\n+\n";
  std::istringstream in(text);
  io::FastxPolicy policy;
  policy.on_bad_record = io::OnBadRecord::kSkip;
  io::FastxReader reader(in, policy);
  std::vector<std::string> names;
  io::FastxRecord rec;
  while (reader.next(rec)) names.push_back(rec.name);
  EXPECT_EQ(names, (std::vector<std::string>{"good1", "good2", "good3"}));
  EXPECT_EQ(reader.skipped(), 3u);
  EXPECT_EQ(reader.records(), 3u);
}

TEST(FastxFaults, WarnPolicyPrintsTheOneLineError) {
  std::istringstream in("@bad\nACGT\n+\nII\n@ok\nACGT\n+\nIIII\n");
  std::ostringstream warnings;
  io::FastxPolicy policy;
  policy.on_bad_record = io::OnBadRecord::kWarn;
  policy.warn_stream = &warnings;
  io::FastxReader reader(in, policy);
  io::FastxRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.name, "ok");
  EXPECT_FALSE(reader.next(rec));
  const std::string warned = warnings.str();
  EXPECT_NE(warned.find("skipping bad record"), std::string::npos);
  EXPECT_NE(warned.find("quality length 2"), std::string::npos);
  EXPECT_EQ(std::count(warned.begin(), warned.end(), '\n'), 1);
}

TEST(FastxFaults, InputTruncationFaultEndsMidRecord) {
  const std::string text = fastqText(
      {{"r1", "ACGTACGTACGT"}, {"r2", "TTTTCCCCGGGG"}, {"r3", "AAAACCCC"}});
  // Cut inside r2's sequence line.
  const std::uint64_t cut = text.find("TTTTCCCCGGGG") + 5;

  {  // abort: the truncated record is a malformed-input error
    const io::ScopedFaultInjection guard(
        io::FaultPlan::parse("truncate@" + std::to_string(cut)));
    std::istringstream in(text);
    io::FastxReader reader(in);
    io::FastxRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r1");
    try {
      (void)reader.next(rec);
      FAIL() << "expected malformed-input after truncation";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformedInput);
      expectOneLine(e.what());
    }
  }
  {  // skip: the truncated record is counted and the stream ends cleanly
    const io::ScopedFaultInjection guard(
        io::FaultPlan::parse("truncate@" + std::to_string(cut)));
    std::istringstream in(text);
    io::FastxPolicy policy;
    policy.on_bad_record = io::OnBadRecord::kSkip;
    io::FastxReader reader(in, policy);
    io::FastxRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.name, "r1");
    EXPECT_FALSE(reader.next(rec));
    EXPECT_EQ(reader.skipped(), 1u);
  }
}

TEST(FastxFaults, RecordEioIsFatalEvenUnderSkipPolicy) {
  const std::string text =
      fastqText({{"r0", "ACGT"}, {"r1", "ACGT"}, {"r2", "ACGT"}});
  const io::ScopedFaultInjection guard(io::FaultPlan::parse("eio@rec:1"));
  std::istringstream in(text);
  io::FastxPolicy policy;
  policy.on_bad_record = io::OnBadRecord::kSkip;  // must NOT swallow EIO
  io::FastxReader reader(in, policy);
  io::FastxRecord rec;
  ASSERT_TRUE(reader.next(rec));
  try {
    (void)reader.next(rec);
    FAIL() << "expected io-fatal EIO";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoFatal);
    expectOneLine(e.what());
    EXPECT_NE(std::string(e.what()).find("EIO"), std::string::npos);
  }
}

// --------------------------------------------------- paf write faults

/// Record "r<i>". The name is appended, not built as "r" + to_string(i):
/// once inlined here, that operator+ trips a false GCC 12 -Wrestrict.
io::PafRecord tinyRecord(int i) {
  io::PafRecord rec;
  rec.query_name = "r";
  rec.query_name += std::to_string(i);
  rec.query_len = 10;
  rec.query_begin = 0;
  rec.query_end = 10;
  rec.target_name = "t";
  rec.target_len = 100;
  rec.target_begin = 0;
  rec.target_end = 10;
  rec.matches = 9;
  rec.alignment_len = 10;
  rec.mapq = 60;
  return rec;
}

std::string cleanPafOutput(int records) {
  std::ostringstream out;
  io::PafWriter writer(out, 1);  // flush per record
  for (int i = 0; i < records; ++i) writer.write(tinyRecord(i));
  writer.close();
  return out.str();
}

TEST(PafFaults, EnospcSurfacesAsCleanIoFatal) {
  const io::ScopedFaultInjection guard(io::FaultPlan::parse("enospc@out:0"));
  std::ostringstream out;
  io::PafWriter writer(out, 1);
  try {
    writer.write(tinyRecord(0));  // flush_threshold 1: flushes inline
    writer.close();
    FAIL() << "expected ENOSPC";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoFatal);
    expectOneLine(e.what());
    EXPECT_NE(std::string(e.what()).find("ENOSPC"), std::string::npos);
  }
}

TEST(PafFaults, PersistentEioOnLaterWriteSurfaces) {
  const io::ScopedFaultInjection guard(io::FaultPlan::parse("eio@out:1"));
  std::ostringstream out;
  io::PafWriter writer(out, 1);
  writer.write(tinyRecord(0));  // write 0 is fine
  try {
    writer.write(tinyRecord(1));  // write 1 fails every attempt
    writer.close();
    FAIL() << "expected EIO";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoFatal);
    EXPECT_NE(std::string(e.what()).find("EIO"), std::string::npos);
  }
}

TEST(PafFaults, TransientFaultsRetryToByteIdenticalOutput) {
  const std::string expected = cleanPafOutput(3);
  for (const char* spec : {"eintr@out:0", "eagain@out:1", "short@out:2",
                           "eintr@out:0,short@out:1,eagain@out:2"}) {
    const io::ScopedFaultInjection guard(io::FaultPlan::parse(spec));
    std::ostringstream out;
    io::PafWriter writer(out, 1);
    for (int i = 0; i < 3; ++i) writer.write(tinyRecord(i));
    writer.close();
    EXPECT_EQ(out.str(), expected) << spec;
    EXPECT_GE(writer.retries(), 1u) << spec;
  }
}

// ------------------------------------------------ engine degradation

/// Wraps the real paper backend but throws on any task whose query
/// contains the poison marker 'Z' — the deterministic stand-in for a
/// read that tickles a solver bug.
class ThrowingAligner final : public engine::Aligner {
 public:
  explicit ThrowingAligner(const engine::AlignerConfig& cfg)
      : inner_(engine::makeAligner("windowed-improved", cfg)) {}

  common::AlignmentResult align(std::string_view target,
                                std::string_view query) override {
    maybeThrow(query);
    return inner_->align(target, query);
  }
  int distance(std::string_view target, std::string_view query,
               int cap) override {
    maybeThrow(query);
    return inner_->distance(target, query, cap);
  }
  std::string_view name() const noexcept override { return "throwing-test"; }

 private:
  static void maybeThrow(std::string_view query) {
    if (query.find('Z') != std::string_view::npos) {
      throw Error(ErrorCode::kInternal, "injected solver failure");
    }
  }
  engine::AlignerPtr inner_;
};

TEST(EngineFaults, ThrowingBackendPoisonsOnlyItsOwnLanes) {
  auto& registry = engine::AlignerRegistry::instance();
  if (!registry.contains("throwing-test")) {
    registry.add("throwing-test", "fault-matrix test backend",
                 [](const engine::AlignerConfig& cfg) {
                   return std::make_unique<ThrowingAligner>(cfg);
                 });
  }

  // 40 well-formed pairs, two poisoned ones in the middle of chunks.
  std::vector<std::string> targets, queries;
  for (int i = 0; i < 40; ++i) {
    std::string t;
    for (int j = 0; j < 120; ++j) t += "ACGT"[(i * 31 + j * 7) % 4];
    std::string q = t.substr(5, 100);
    q[50] = q[50] == 'A' ? 'C' : 'A';  // one mismatch
    targets.push_back(std::move(t));
    queries.push_back(std::move(q));
  }
  queries[7] = "ZZZZZZZZZZ";
  queries[23] = "AAAAZAAAA";

  std::vector<engine::AlignmentTask> tasks;
  std::vector<engine::DistanceTask> dtasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back({targets[static_cast<std::size_t>(i)],
                     queries[static_cast<std::size_t>(i)]});
    dtasks.push_back({targets[static_cast<std::size_t>(i)],
                      queries[static_cast<std::size_t>(i)], -1});
  }

  engine::EngineConfig clean_cfg;
  clean_cfg.backend = "windowed-improved";
  clean_cfg.threads = 4;
  engine::AlignmentEngine clean(clean_cfg);
  // The clean engine never sees the poison marker's tasks.
  auto clean_tasks = tasks;
  clean_tasks[7] = tasks[6];
  clean_tasks[23] = tasks[22];
  const auto clean_results = clean.alignBatch(clean_tasks);

  engine::EngineConfig cfg;
  cfg.backend = "throwing-test";
  cfg.threads = 4;
  engine::AlignmentEngine eng(cfg);
  const auto results = eng.alignBatch(tasks);
  ASSERT_EQ(results.size(), tasks.size());

  // Poisoned lanes degrade to ok == false; every other lane is
  // bit-identical to the clean engine's answer for the same pair.
  EXPECT_FALSE(results[7].ok);
  EXPECT_FALSE(results[23].ok);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 7 || i == 23) continue;
    ASSERT_TRUE(results[i].ok) << i;
    EXPECT_EQ(results[i].edit_distance, clean_results[i].edit_distance) << i;
    EXPECT_EQ(results[i].cigar.str(), clean_results[i].cigar.str()) << i;
  }
  EXPECT_EQ(eng.taskFailures(), 2u);
  EXPECT_GE(eng.batchFaults(), 1u);

  // Same isolation for the distance path: poisoned lanes -1, the rest
  // identical to the clean engine (which, like clean_tasks above, never
  // sees the poison marker).
  auto clean_dtasks = dtasks;
  clean_dtasks[7] = dtasks[6];
  clean_dtasks[23] = dtasks[22];
  const auto clean_ds = clean.distanceBatch(clean_dtasks);
  const auto ds = eng.distanceBatch(dtasks);
  ASSERT_EQ(ds.size(), dtasks.size());
  EXPECT_EQ(ds[7], -1);
  EXPECT_EQ(ds[23], -1);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (i == 7 || i == 23) continue;
    EXPECT_EQ(ds[i], clean_ds[i]) << i;
  }
  EXPECT_EQ(eng.taskFailures(), 4u);

  // The single-pair entry points degrade by throwing (callers isolate),
  // and a throwing aligner is never recycled into the spare pool: a
  // subsequent clean call must still work.
  EXPECT_THROW((void)eng.align(targets[0], "ZZZZ"), Error);
  const auto again = eng.align(targets[0], queries[0]);
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.cigar.str(), clean_results[0].cigar.str());
}

// ------------------------------------------------- pipeline run report

TEST(PipelineFaults, SkipPolicyKeepsGoodReadPafByteIdentical) {
  refmodel::Reference ref;
  readsim::GenomeConfig gcfg;
  gcfg.length = 50'000;
  gcfg.seed = 11;
  ref.addContig("chr", readsim::generateGenome(gcfg));
  auto rcfg = readsim::ReadSimConfig::pacbioClr(12, 900);
  rcfg.seed = 13;
  const auto reads = readsim::simulateReads(ref, rcfg);
  ASSERT_GE(reads.size(), 6u);

  std::string clean_text, dirty_text;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const std::string rec = "@" + reads[i].name + "\n" + reads[i].seq +
                            "\n+\n" + std::string(reads[i].seq.size(), 'I') +
                            "\n";
    clean_text += rec;
    dirty_text += rec;
    if (i == 2) {  // wedge a corrupt record between good ones
      dirty_text += "@broken\nACGTACGT\n+\nII\n";
    }
  }

  const auto runOnce = [&](const std::string& text, io::OnBadRecord policy,
                           pipeline::RunReport& report) {
    pipeline::PipelineConfig cfg;
    cfg.engine.threads = 4;
    cfg.batch_reads = 5;
    cfg.on_bad_record = policy;
    pipeline::MappingPipeline pipe(ref, cfg);
    std::istringstream in(text);
    std::ostringstream out;
    io::PafWriter writer(out);
    (void)pipe.run(in, writer, "reads.fq");
    writer.close();
    report = pipe.report();
    return out.str();
  };

  pipeline::RunReport clean_report, dirty_report;
  const std::string clean_paf =
      runOnce(clean_text, io::OnBadRecord::kAbort, clean_report);
  ASSERT_FALSE(clean_paf.empty());
  EXPECT_TRUE(clean_report.clean());
  EXPECT_EQ(clean_report.records_in, reads.size());
  EXPECT_EQ(clean_report.skipped_bad_records, 0u);

  const std::string dirty_paf =
      runOnce(dirty_text, io::OnBadRecord::kSkip, dirty_report);
  EXPECT_EQ(dirty_paf, clean_paf);  // good reads unaffected, byte for byte
  EXPECT_FALSE(dirty_report.clean());
  EXPECT_EQ(dirty_report.skipped_bad_records, 1u);
  EXPECT_EQ(dirty_report.errors[ErrorCode::kMalformedInput], 1u);

  // Same corrupt input under the abort policy: run() throws and the
  // report captures the first error.
  pipeline::PipelineConfig cfg;
  cfg.engine.threads = 2;
  cfg.on_bad_record = io::OnBadRecord::kAbort;
  pipeline::MappingPipeline pipe(ref, cfg);
  std::istringstream in(dirty_text);
  std::ostringstream out;
  io::PafWriter writer(out);
  EXPECT_THROW((void)pipe.run(in, writer, "reads.fq"), Error);
  EXPECT_FALSE(pipe.report().first_error.ok());
  EXPECT_EQ(pipe.report().first_error.code(), ErrorCode::kMalformedInput);
}

TEST(PipelineFaults, AdmissionCapsRejectWithoutCrashing) {
  refmodel::Reference ref;
  readsim::GenomeConfig gcfg;
  gcfg.length = 30'000;
  gcfg.seed = 21;
  ref.addContig("chr", readsim::generateGenome(gcfg));
  auto rcfg = readsim::ReadSimConfig::pacbioClr(8, 700);
  rcfg.seed = 23;
  const auto reads = readsim::simulateReads(ref, rcfg);
  std::string text;
  for (const auto& r : reads) {
    text += "@" + r.name + "\n" + r.seq + "\n+\n" +
            std::string(r.seq.size(), 'I') + "\n";
  }

  pipeline::PipelineConfig cfg;
  cfg.engine.threads = 2;
  cfg.max_read_len = 10;  // every simulated read is far longer
  pipeline::MappingPipeline pipe(ref, cfg);
  std::istringstream in(text);
  std::ostringstream out;
  io::PafWriter writer(out);
  (void)pipe.run(in, writer);
  writer.close();
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(pipe.report().rejected_reads, reads.size());
  EXPECT_EQ(pipe.report().errors[ErrorCode::kResourceLimit], reads.size());
  EXPECT_EQ(pipe.report().records_in, reads.size());
}

}  // namespace
}  // namespace gx
