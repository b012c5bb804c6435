// SimdBatchSolver contract: every lane result is bit-identical to the
// scalar solver on the same problem, for every supported ISA level and
// the forced scalar-lane fallback. This is the guarantee the batched
// distance path in the engine and the two-phase mapping flow rest on,
// so it is hammered fuzz-style: window widths across the 64/128/256/512
// instantiations, ragged batch sizes around the lane count, cap
// saturation, degenerate shapes, and the full windowed-distance march.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "genasmx/bitvector/bitvector.hpp"
#include "genasmx/common/sequence.hpp"
#include "genasmx/core/genasm_improved.hpp"
#include "genasmx/core/windowed.hpp"
#include "genasmx/genasm/genasm_baseline.hpp"
#include "genasmx/simd/batch_solver.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/util/prng.hpp"

namespace gx {
namespace {

std::vector<simd::IsaLevel> supportedLevels() {
  std::vector<simd::IsaLevel> out = {simd::IsaLevel::Scalar};
  if (simd::isaSupported(simd::IsaLevel::Sse2)) {
    out.push_back(simd::IsaLevel::Sse2);
  }
  if (simd::isaSupported(simd::IsaLevel::Avx2)) {
    out.push_back(simd::IsaLevel::Avx2);
  }
  if (simd::isaSupported(simd::IsaLevel::Avx512)) {
    out.push_back(simd::IsaLevel::Avx512);
  }
  return out;
}

/// Scalar reference at the width the production aligners would pick for
/// this pattern (wordsNeeded), for both window solvers.
template <int NW>
int scalarDistanceAt(std::string_view t_rev, std::string_view q_rev,
                     const genasm::WindowSpec& spec, bool baseline) {
  if (baseline) {
    genasm::BaselineWindowSolver<NW> solver;
    return solver.solveDistance(t_rev, q_rev, spec);
  }
  core::ImprovedWindowSolver<NW> solver;
  return solver.solveDistance(t_rev, q_rev, spec);
}

int scalarDistance(const simd::WindowProblem& p, genasm::Anchor anchor,
                   bool baseline) {
  const auto t_rev = common::reversed(p.text);
  const auto q_rev = common::reversed(p.pattern);
  genasm::WindowSpec spec;
  spec.anchor = anchor;
  spec.max_edits = p.max_edits;
  const int nw =
      bitvector::wordsNeeded(static_cast<int>(p.pattern.size()));
  switch (nw) {
    case 1: return scalarDistanceAt<1>(t_rev, q_rev, spec, baseline);
    case 2: return scalarDistanceAt<2>(t_rev, q_rev, spec, baseline);
    case 3: return scalarDistanceAt<3>(t_rev, q_rev, spec, baseline);
    case 4: return scalarDistanceAt<4>(t_rev, q_rev, spec, baseline);
    case 5: return scalarDistanceAt<5>(t_rev, q_rev, spec, baseline);
    case 6: return scalarDistanceAt<6>(t_rev, q_rev, spec, baseline);
    case 7: return scalarDistanceAt<7>(t_rev, q_rev, spec, baseline);
    default: return scalarDistanceAt<8>(t_rev, q_rev, spec, baseline);
  }
}

template <int NW>
genasm::WindowResult scalarSolveAt(std::string_view t_rev,
                                   std::string_view q_rev,
                                   const genasm::WindowSpec& spec,
                                   bool baseline,
                                   const core::ImprovedOptions& opts = {}) {
  if (baseline) {
    genasm::BaselineWindowSolver<NW> solver;
    return solver.solve(t_rev, q_rev, spec);
  }
  core::ImprovedWindowSolver<NW> solver(opts);
  return solver.solve(t_rev, q_rev, spec);
}

genasm::WindowResult scalarSolve(const simd::WindowProblem& p,
                                 genasm::Anchor anchor, bool baseline,
                                 const core::ImprovedOptions& opts = {}) {
  const auto t_rev = common::reversed(p.text);
  const auto q_rev = common::reversed(p.pattern);
  genasm::WindowSpec spec;
  spec.anchor = anchor;
  spec.max_edits = p.max_edits;
  spec.tb_op_limit = p.tb_op_limit;
  const int nw =
      bitvector::wordsNeeded(static_cast<int>(p.pattern.size()));
  switch (nw) {
    case 1: return scalarSolveAt<1>(t_rev, q_rev, spec, baseline, opts);
    case 2: return scalarSolveAt<2>(t_rev, q_rev, spec, baseline, opts);
    case 4: return scalarSolveAt<4>(t_rev, q_rev, spec, baseline, opts);
    default: return scalarSolveAt<8>(t_rev, q_rev, spec, baseline, opts);
  }
}

/// Random window problems with a mix of widths (pattern length up to
/// `max_m`), error levels, caps, and traceback limits. Backing strings
/// are owned by `store` so the views stay alive.
std::vector<simd::WindowProblem> randomProblems(
    util::Xoshiro256& rng, std::size_t count, std::size_t max_m,
    std::vector<std::string>& store) {
  std::vector<simd::WindowProblem> out;
  // Short strings live in SSO storage, which vector reallocation moves;
  // reserve up front so the views handed out stay valid.
  store.reserve(store.size() + 2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t m = 1 + rng.below(max_m);
    const std::size_t n = 1 + rng.below(max_m + max_m / 2);
    store.push_back(common::randomSequence(rng, n));
    const std::string& text = store.back();
    // Half the patterns derive from the text (realistic low distances,
    // exercises convergence masking); half are unrelated (cap blowups).
    if (rng.below(2) == 0) {
      store.push_back(common::mutateSequence(
          rng, std::string_view(text).substr(0, std::min(n, m)),
          rng.below(m / 4 + 2)));
      if (store.back().empty() || store.back().size() > max_m) {
        store.back() = common::randomSequence(rng, m);
      }
    } else {
      store.push_back(common::randomSequence(rng, m));
    }
    simd::WindowProblem p;
    p.text = text;
    p.pattern = store.back();
    // Cap mix: always-solvable, saturating-small, and mid caps.
    const int mode = static_cast<int>(rng.below(4));
    p.max_edits = mode == 0 ? -1
                  : mode == 1 ? static_cast<int>(rng.below(3))
                              : static_cast<int>(rng.below(m + 4));
    p.tb_op_limit =
        rng.below(3) == 0 ? static_cast<int>(1 + rng.below(m + 8)) : -1;
    out.push_back(p);
  }
  return out;
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndForceClamps) {
  EXPECT_TRUE(simd::isaSupported(simd::IsaLevel::Scalar));
  const auto active = simd::activeIsa();
  EXPECT_TRUE(simd::isaSupported(active));
  // Forcing an unsupported level clamps to a supported one.
  const auto forced = simd::forceIsa(simd::IsaLevel::Avx2);
  EXPECT_TRUE(simd::isaSupported(forced));
  EXPECT_EQ(simd::forceIsa(simd::IsaLevel::Scalar), simd::IsaLevel::Scalar);
  simd::forceIsa(active);  // restore
  EXPECT_FALSE(simd::isaName(active).empty());
  EXPECT_EQ(simd::isaLanes(simd::IsaLevel::Scalar), 1);
}

// --------------------------------------------------------- fill kernels

/// Word w of BitVec::onesAbove(d), the level's column-0 value.
std::uint64_t onesAboveWord(int d, int w) {
  const int lo = w * 64;
  if (d <= lo) return ~0ULL;
  if (d >= lo + 64) return 0;
  return ~0ULL << (d - lo);
}

// Every kernel the host supports against kFillScalar run lane by lane,
// every row word of every level, at every group word count: the only
// check of the vector kernels that does not go through a solver (so the
// AVX-512 kernel is exercised even where dispatch is forced to scalar).
// Lanes carry patterns drawn from their text at 0-30% error, texts
// shorter than the group's (padded columns), and an invalid lane
// (all-ones masks) when the group has more than one lane.
TEST(SimdFillKernel, EveryIsaMatchesScalarLaneByLaneWordForWord) {
  util::Xoshiro256 rng(1234);
  for (const auto level : supportedLevels()) {
    const simd::detail::FillFn fill = simd::detail::fillKernel(level);
    const int L = simd::isaLanes(level);
    for (int nw = 1; nw <= 8; ++nw) {
      for (const bool both : {false, true}) {
        const std::string ctx = std::string(simd::isaName(level)) +
                                " nw=" + std::to_string(nw) +
                                " both=" + std::to_string(both);
        // Pattern-mask words, lane-major here: lane_pm[l][(i-1)*nw + w].
        const int n_max = 64 * nw + static_cast<int>(rng.below(40));
        const std::size_t col = static_cast<std::size_t>(nw);
        std::vector<std::vector<std::uint64_t>> lane_pm(
            static_cast<std::size_t>(L),
            std::vector<std::uint64_t>(static_cast<std::size_t>(n_max) * col,
                                       ~0ULL));
        for (int l = 0; l < L; ++l) {
          if (L > 1 && l == L - 1) continue;  // invalid lane
          const int n = l == 0 ? n_max
                               : 1 + static_cast<int>(rng.below(n_max));
          const std::string text = common::randomSequence(rng, n);
          const int m = std::min(n, 64 * (nw - 1) + 1 +
                                        static_cast<int>(rng.below(64)));
          const std::size_t errs =
              rng.below(31) * static_cast<std::size_t>(m) / 100;
          std::string pattern = common::mutateSequence(
              rng, std::string_view(text).substr(0, m), errs);
          pattern.resize(std::clamp<std::size_t>(pattern.size(), 1, 64 * col),
                         'A');
          // Bit j of column i is 0 iff pattern_rev[j] == text_rev[i-1].
          auto& pm = lane_pm[static_cast<std::size_t>(l)];
          for (int i = 1; i <= n; ++i) {
            const char c = text[static_cast<std::size_t>(n - i)];
            for (std::size_t j = 0; j < pattern.size(); ++j) {
              if (pattern[pattern.size() - 1 - j] == c) {
                pm[static_cast<std::size_t>(i - 1) * col + j / 64] &=
                    ~(1ULL << (j % 64));
              }
            }
          }
        }
        // The same words in the kernels' SoA layout.
        const std::size_t soa_col = col * static_cast<std::size_t>(L);
        std::vector<std::uint64_t> pm(static_cast<std::size_t>(n_max) *
                                      soa_col);
        for (std::size_t k = 0; k < pm.size(); ++k) {
          pm[k] = lane_pm[k % static_cast<std::size_t>(L)]
                         [k / static_cast<std::size_t>(L)];
        }
        const std::size_t rows = static_cast<std::size_t>(n_max + 1);
        std::vector<std::uint64_t> cur(rows * soa_col), prev(rows * soa_col);
        std::vector<std::vector<std::uint64_t>> lcur(
            static_cast<std::size_t>(L), std::vector<std::uint64_t>(rows * col));
        auto lprev = lcur;
        for (int d = 0; d <= 40; ++d) {
          for (int w = 0; w < nw; ++w) {
            for (int l = 0; l < L; ++l) {
              cur[static_cast<std::size_t>(w * L + l)] = onesAboveWord(d, w);
              lcur[static_cast<std::size_t>(l)][static_cast<std::size_t>(w)] =
                  onesAboveWord(d, w);
            }
          }
          fill({cur.data(), prev.data(), pm.data(), n_max, nw, d, both});
          for (int l = 0; l < L; ++l) {
            const auto li = static_cast<std::size_t>(l);
            simd::detail::kFillScalar({lcur[li].data(), lprev[li].data(),
                                       lane_pm[li].data(), n_max, nw, d,
                                       both});
            for (std::size_t k = 0; k < rows * col; ++k) {
              ASSERT_EQ(cur[k * static_cast<std::size_t>(L) + li], lcur[li][k])
                  << ctx << " d=" << d << " lane=" << l << " column="
                  << k / col << " word=" << k % col;
            }
          }
          std::swap(cur, prev);
          std::swap(lcur, lprev);
        }
      }
    }
  }
}

TEST(SimdBatchStats, DepthSortedLanesRunFewerLevelSlots) {
  // One shape throughout (same text and pattern length, same cap), so the
  // shape sort keeps input order: alternating exact (1 level) and random
  // (deep) patterns put a deep lane in every group; the same problems
  // depth-sorted let the shallow groups stop after one level.
  util::Xoshiro256 rng(31337);
  std::vector<std::string> store;
  store.reserve(64);
  std::vector<simd::WindowProblem> shallow;
  std::vector<simd::WindowProblem> deep;
  for (int i = 0; i < 16; ++i) {
    store.push_back(common::randomSequence(rng, 96));
    const std::string& text = store.back();
    shallow.push_back({text, std::string_view(text).substr(0, 64), -1, 32});
    store.push_back(common::randomSequence(rng, 64));
    deep.push_back({text, store.back(), -1, 32});
  }
  std::vector<simd::WindowProblem> alternating;
  for (std::size_t i = 0; i < shallow.size(); ++i) {
    alternating.push_back(shallow[i]);
    alternating.push_back(deep[i]);
  }
  std::vector<simd::WindowProblem> sorted = shallow;
  sorted.insert(sorted.end(), deep.begin(), deep.end());
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver by_input(level);
    simd::SimdBatchSolver by_depth(level);
    std::vector<genasm::WindowResult> outs(alternating.size());
    by_input.alignBatch(genasm::Anchor::StartOnly, alternating.data(),
                        alternating.size(), outs.data());
    by_depth.alignBatch(genasm::Anchor::StartOnly, sorted.data(),
                        sorted.size(), outs.data());
    const simd::BatchStats& a = by_input.stats();
    const simd::BatchStats& b = by_depth.stats();
    const std::string ctx(simd::isaName(level));
    // The lanes need the same levels whatever their group-mates.
    EXPECT_EQ(a.lane_levels, b.lane_levels) << ctx;
    EXPECT_GE(a.level_slots, a.lane_levels) << ctx;
    EXPECT_GE(b.level_slots, b.lane_levels) << ctx;
    if (by_input.lanes() > 1) {
      EXPECT_LT(b.level_slots, a.level_slots) << ctx;
    } else {
      EXPECT_EQ(b.level_slots, a.level_slots) << ctx;
      EXPECT_EQ(a.level_slots, a.lane_levels) << ctx;
    }
  }
}

TEST(SimdBatchDistance, MatchesScalarSolveDistanceAcrossWidths) {
  // Width classes straddling every BitVec instantiation the production
  // dispatch uses: 64 / 128 / 256 / 512 plus ragged in-between sizes.
  for (const std::size_t max_m : {64UL, 128UL, 256UL, 512UL}) {
    util::Xoshiro256 rng(1000 + max_m);
    std::vector<std::string> store;
    const auto problems = randomProblems(rng, 48, max_m, store);
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      for (const auto anchor :
           {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
        std::vector<int> got(problems.size(), -2);
        solver.solveDistanceBatch(anchor, problems.data(), problems.size(),
                                  got.data());
        for (std::size_t i = 0; i < problems.size(); ++i) {
          const int want = scalarDistance(problems[i], anchor, false);
          EXPECT_EQ(got[i], want)
              << simd::isaName(level) << " i=" << i << " max_m=" << max_m
              << " |t|=" << problems[i].text.size()
              << " |q|=" << problems[i].pattern.size()
              << " k=" << problems[i].max_edits;
          // The baseline solver's distance kernel agrees too.
          EXPECT_EQ(scalarDistance(problems[i], anchor, true), want);
        }
      }
    }
  }
}

TEST(SimdBatchDistance, RaggedBatchSizesAroundTheLaneCount) {
  util::Xoshiro256 rng(77);
  std::vector<std::string> store;
  const auto all = randomProblems(rng, 32, 80, store);
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    const std::size_t lanes = static_cast<std::size_t>(solver.lanes());
    for (std::size_t batch = 1; batch <= lanes + 3; ++batch) {
      std::vector<int> got(batch, -2);
      solver.solveDistanceBatch(genasm::Anchor::BothEnds, all.data(), batch,
                                got.data());
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(got[i],
                  scalarDistance(all[i], genasm::Anchor::BothEnds, false))
            << simd::isaName(level) << " batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST(SimdBatchDistance, DegenerateShapes) {
  util::Xoshiro256 rng(5);
  const std::string text = common::randomSequence(rng, 600);
  const std::string big(600, 'A');
  const std::vector<simd::WindowProblem> problems = {
      {text, "", -1, -1},                         // empty pattern -> -1
      {text, big, -1, -1},                        // pattern > 512 -> -1
      {"", "ACGT", -1, -1},                       // empty text
      {"", "ACGT", 2, -1},                        // empty text, capped out
      {std::string_view(text).substr(0, 64),
       std::string_view(text).substr(0, 64), 0, -1},  // exact match, k=0
  };
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<int> got(problems.size(), -2);
    solver.solveDistanceBatch(genasm::Anchor::BothEnds, problems.data(),
                              problems.size(), got.data());
    EXPECT_EQ(got[0], -1);
    EXPECT_EQ(got[1], -1);
    // Empty text, pattern of 4: four insertions (or capped out at 2).
    EXPECT_EQ(got[2], 4);
    EXPECT_EQ(got[3], -1);
    EXPECT_EQ(got[4], 0);
  }
}

TEST(SimdWindowBatch, MatchesScalarSolveForBothSolvers) {
  util::Xoshiro256 rng(4242);
  std::vector<std::string> store;
  // Window-march shapes: patterns up to one window, tb limits like the
  // mid-window W-O truncation.
  const auto problems = randomProblems(rng, 64, 64, store);
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    for (const auto anchor :
         {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
      std::vector<simd::WindowOutcome> got(problems.size());
      solver.solveWindowBatch(anchor, problems.data(), problems.size(),
                              got.data());
      for (std::size_t i = 0; i < problems.size(); ++i) {
        for (const bool baseline : {false, true}) {
          const auto want = scalarSolve(problems[i], anchor, baseline);
          EXPECT_EQ(got[i].ok, want.ok)
              << simd::isaName(level) << " i=" << i << " bl=" << baseline;
          if (!want.ok) continue;
          EXPECT_EQ(got[i].distance, want.distance) << i;
          EXPECT_EQ(got[i].edits, want.cigar.editDistance()) << i;
          EXPECT_EQ(got[i].text_consumed, want.cigar.targetLength()) << i;
          EXPECT_EQ(got[i].pattern_consumed, want.cigar.queryLength()) << i;
        }
      }
    }
  }
}

TEST(SimdWindowedMarch, MatchesScalarDistanceWindowedWithCaps) {
  util::Xoshiro256 rng(9090);
  for (const int window : {64, 128}) {
    core::WindowConfig cfg;
    cfg.window = window;
    cfg.overlap = window / 3;
    std::vector<std::string> store;
    store.reserve(40);
    std::vector<core::BatchedDistanceRequest> requests;
    std::vector<int> want;
    for (int i = 0; i < 20; ++i) {
      const std::size_t qlen = 300 + rng.below(1200);
      store.push_back(common::randomSequence(rng, qlen + rng.below(200)));
      const std::string& t = store.back();
      store.push_back(
          common::mutateSequence(rng, t.substr(0, qlen), rng.below(qlen / 6)));
      const std::string& q = store.back();
      // Reference march (improved solver at the production width).
      core::ImprovedOptions opts;
      const int ed = core::distanceWindowedImproved(t, q, cfg, opts, -1);
      const int mode = static_cast<int>(rng.below(4));
      const int cap = mode == 0   ? -1
                      : mode == 1 ? ed
                      : mode == 2 ? (ed > 0 ? ed - 1 : 0)
                                  : ed / 2;
      requests.push_back({t, q, cap});
      want.push_back(core::distanceWindowedImproved(t, q, cfg, opts, cap));
      // The baseline march agrees with the improved one (shared
      // windowing, identical per-window results).
      EXPECT_EQ(core::distanceWindowedBaseline(t, q, cfg, cap), want.back());
    }
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<int> got(requests.size(), -2);
      core::distanceWindowedBatch(solver, cfg, requests.data(),
                                  requests.size(), got.data());
      EXPECT_EQ(got, want) << simd::isaName(level) << " window=" << window;
    }
  }
}

// --------------------------------------------------------- batched align

/// alignBatch's contract is scalar solve() equality, cigar included.
void expectSameWindowResult(const genasm::WindowResult& got,
                            const genasm::WindowResult& want,
                            const std::string& ctx) {
  EXPECT_EQ(got.ok, want.ok) << ctx;
  if (!want.ok) return;
  EXPECT_EQ(got.distance, want.distance) << ctx;
  EXPECT_EQ(got.traceback_complete, want.traceback_complete) << ctx;
  EXPECT_EQ(got.cigar, want.cigar)
      << ctx << " got=" << got.cigar.str() << " want=" << want.cigar.str();
}

TEST(SimdBatchAlign, MatchesScalarSolveAcrossWidths) {
  // Width classes straddling every BitVec instantiation, both anchors,
  // every supported ISA: the batched alignment the engine's alignBatch
  // chunks ride on must reproduce the scalar solve cigar for cigar —
  // including tb_op_limit truncation and cap failures.
  for (const std::size_t max_m : {64UL, 128UL, 256UL, 512UL}) {
    util::Xoshiro256 rng(7000 + max_m);
    std::vector<std::string> store;
    const auto problems = randomProblems(rng, 40, max_m, store);
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      for (const auto anchor :
           {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
        std::vector<genasm::WindowResult> got(problems.size());
        solver.alignBatch(anchor, problems.data(), problems.size(),
                          got.data());
        for (std::size_t i = 0; i < problems.size(); ++i) {
          for (const bool baseline : {false, true}) {
            const auto want = scalarSolve(problems[i], anchor, baseline);
            expectSameWindowResult(
                got[i], want,
                std::string(simd::isaName(level)) + " i=" +
                    std::to_string(i) + " max_m=" + std::to_string(max_m) +
                    " bl=" + std::to_string(baseline));
          }
        }
      }
    }
  }
}

TEST(SimdBatchAlign, EveryImprovedOptionsMaskAgrees) {
  // The lane solves ignore ImprovedOptions (they change the scalar
  // solver's storage/accounting, never its results); pin that against
  // all eight masks.
  util::Xoshiro256 rng(31337);
  std::vector<std::string> store;
  const auto problems = randomProblems(rng, 24, 96, store);
  simd::SimdBatchSolver solver;  // active ISA
  for (const auto anchor :
       {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
    std::vector<genasm::WindowResult> got(problems.size());
    solver.alignBatch(anchor, problems.data(), problems.size(), got.data());
    for (int mask = 0; mask < 8; ++mask) {
      core::ImprovedOptions opts;
      opts.compress_entries = (mask & 1) != 0;
      opts.early_termination = (mask & 2) != 0;
      opts.traceback_pruning = (mask & 4) != 0;
      for (std::size_t i = 0; i < problems.size(); ++i) {
        expectSameWindowResult(
            got[i], scalarSolve(problems[i], anchor, false, opts),
            "mask=" + std::to_string(mask) + " i=" + std::to_string(i));
      }
    }
  }
}

TEST(SimdBatchAlign, RaggedBatchesAndShapeSortOffAreIdentical) {
  // Batch sizes around the lane count (partial final groups), with shape
  // sorting on and off: scatter-back must restore input order and the
  // results must be bit-identical either way.
  util::Xoshiro256 rng(555);
  std::vector<std::string> store;
  const auto all = randomProblems(rng, 40, 200, store);
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver sorted(level);
    simd::SimdBatchSolver unsorted(level);
    unsorted.setShapeSort(false);
    EXPECT_TRUE(sorted.shapeSort());
    EXPECT_FALSE(unsorted.shapeSort());
    const std::size_t lanes = static_cast<std::size_t>(sorted.lanes());
    for (const std::size_t batch :
         {std::size_t{1}, lanes, lanes + 3, all.size()}) {
      std::vector<genasm::WindowResult> a(batch), b(batch);
      sorted.alignBatch(genasm::Anchor::StartOnly, all.data(), batch,
                        a.data());
      unsorted.alignBatch(genasm::Anchor::StartOnly, all.data(), batch,
                          b.data());
      for (std::size_t i = 0; i < batch; ++i) {
        const std::string ctx = std::string(simd::isaName(level)) +
                                " batch=" + std::to_string(batch) +
                                " i=" + std::to_string(i);
        expectSameWindowResult(a[i], b[i], ctx + " (sort A/B)");
        expectSameWindowResult(
            a[i], scalarSolve(all[i], genasm::Anchor::StartOnly, false), ctx);
      }
    }
  }
}

TEST(SimdBatchAlign, OccupancyStatsTrackPackingAndShapeSortReducesPadding) {
  // Alternating tiny/huge shapes: unsorted groups pad every tiny lane to
  // the huge geometry; shape sorting separates them into homogeneous
  // groups. The occupancy counters are what BENCH_pipeline.json reports.
  util::Xoshiro256 rng(808);
  std::vector<std::string> store;
  store.reserve(64);
  std::vector<simd::WindowProblem> problems;
  for (int i = 0; i < 32; ++i) {
    const bool big = (i % 2) == 0;
    store.push_back(common::randomSequence(rng, big ? 700 : 12));
    const std::string& text = store.back();
    store.push_back(common::randomSequence(rng, big ? 480 : 8));
    problems.push_back({text, store.back(), -1, -1});
  }
  simd::SimdBatchSolver sorted;
  simd::SimdBatchSolver unsorted;
  unsorted.setShapeSort(false);
  std::vector<genasm::WindowResult> outs(problems.size());
  sorted.alignBatch(genasm::Anchor::BothEnds, problems.data(),
                    problems.size(), outs.data());
  unsorted.alignBatch(genasm::Anchor::BothEnds, problems.data(),
                      problems.size(), outs.data());
  for (const auto* solver : {&sorted, &unsorted}) {
    const simd::BatchStats& s = solver->stats();
    EXPECT_GT(s.groups, 0u);
    EXPECT_EQ(s.lanes_filled, problems.size());
    EXPECT_GE(s.lane_slots, s.lanes_filled);
    EXPECT_GE(s.packed_words, s.useful_words);
    EXPECT_GT(s.useful_words, 0u);
  }
  // Same useful work either way; strictly less padded work when sorting
  // actually has lanes to group (more than one lane per group).
  EXPECT_EQ(sorted.stats().useful_words, unsorted.stats().useful_words);
  if (sorted.lanes() > 1) {
    EXPECT_LT(sorted.stats().packed_words, unsorted.stats().packed_words);
  }
  sorted.resetStats();
  EXPECT_EQ(sorted.stats().groups, 0u);
  EXPECT_EQ(sorted.stats().packed_words, 0u);
}

TEST(SimdWindowedMarch, AlignBatchedMatchesScalarAlignWindowed) {
  // The batched windowed-alignment march vs the scalar driver, full
  // AlignmentResult equality (ok, distance, score, cigar) for both
  // window solvers, plus degenerate requests.
  util::Xoshiro256 rng(2024);
  for (const int window : {64, 128}) {
    core::WindowConfig cfg;
    cfg.window = window;
    cfg.overlap = window / 3;
    std::vector<std::string> store;
    store.reserve(40);
    std::vector<core::BatchedAlignRequest> requests;
    for (int i = 0; i < 14; ++i) {
      const std::size_t qlen = 200 + rng.below(1400);
      store.push_back(common::randomSequence(rng, qlen + rng.below(300)));
      const std::string& t = store.back();
      store.push_back(
          common::mutateSequence(rng, t.substr(0, qlen), rng.below(qlen / 5)));
      requests.push_back({t, store.back()});
    }
    const std::string long_t = common::randomSequence(rng, 500);
    requests.push_back({long_t, ""});                            // deletions
    requests.push_back({"", std::string_view(long_t).substr(0, 50)});
    requests.push_back({long_t, std::string_view(long_t).substr(0, 40)});
    for (const auto level : supportedLevels()) {
      simd::SimdBatchSolver solver(level);
      std::vector<common::AlignmentResult> got(requests.size());
      core::alignWindowedBatch(solver, cfg, requests.data(), requests.size(),
                               got.data());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto want = core::alignWindowedImproved(
            requests[i].target, requests[i].query, cfg);
        const std::string ctx = std::string(simd::isaName(level)) +
                                " window=" + std::to_string(window) +
                                " i=" + std::to_string(i);
        EXPECT_EQ(got[i].ok, want.ok) << ctx;
        EXPECT_EQ(got[i].edit_distance, want.edit_distance) << ctx;
        EXPECT_EQ(got[i].score, want.score) << ctx;
        EXPECT_EQ(got[i].cigar, want.cigar) << ctx;
        // The baseline driver commits the identical alignment.
        const auto base = core::alignWindowedBaseline(
            requests[i].target, requests[i].query, cfg);
        EXPECT_EQ(got[i].cigar, base.cigar) << ctx;
      }
    }
  }
}

TEST(SimdWindowedMarch, SteadyStateBatchedMarchesAllocateNothing) {
  // The batched marches (alignment and distance) must be allocation-free
  // once their arenas are warm: re-running the same request set grows
  // neither the lane solver's arenas nor the march scratch.
  util::Xoshiro256 rng(606);
  std::vector<std::string> store;
  store.reserve(24);
  std::vector<core::BatchedAlignRequest> areqs;
  std::vector<core::BatchedDistanceRequest> dreqs;
  for (int i = 0; i < 12; ++i) {
    const std::size_t qlen = 600 + rng.below(900);
    store.push_back(common::randomSequence(rng, qlen + 100));
    const std::string& t = store.back();
    store.push_back(
        common::mutateSequence(rng, t.substr(0, qlen), rng.below(60)));
    areqs.push_back({t, store.back()});
    dreqs.push_back({t, store.back(), -1});
  }
  core::WindowConfig cfg;
  simd::SimdBatchSolver solver;
  core::WindowedBatchScratch scratch;
  std::vector<common::AlignmentResult> ares(areqs.size());
  std::vector<int> dres(dreqs.size());
  // Cold pass: arenas grow to the request set's peak geometry.
  core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                           ares.data(), scratch);
  core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                              dres.data(), scratch);
  const std::uint64_t solver_cold = solver.scratchAllocs();
  const std::uint64_t scratch_cold = scratch.allocs();
  EXPECT_GT(solver_cold, 0u);
  EXPECT_GT(scratch_cold, 0u);
  // Warm passes: identical request set, identical sweep geometry — the
  // steady-state contract the bench's
  // steady_scratch_allocs_per_window == 0 figure reports.
  for (int rep = 0; rep < 3; ++rep) {
    core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                             ares.data(), scratch);
    core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                                dres.data(), scratch);
  }
  EXPECT_EQ(solver.scratchAllocs(), solver_cold);
  EXPECT_EQ(scratch.allocs(), scratch_cold);
}

TEST(SimdWindowedMarch, MixedDepthBatchesMatchScalarMarches) {
  // True overlaps at ~10% error interleaved with unrelated random
  // sequences: the depth-ordered sweeps pack them into separate groups.
  // Every request still gets exactly the scalar march's result, and a
  // warm rerun (the sort permuting for real) allocates nothing.
  util::Xoshiro256 rng(2718);
  core::WindowConfig cfg;
  std::vector<std::string> store;
  store.reserve(48);
  std::vector<core::BatchedAlignRequest> areqs;
  std::vector<core::BatchedDistanceRequest> dreqs;
  for (int i = 0; i < 24; ++i) {
    const std::size_t qlen = 400 + rng.below(1200);
    store.push_back(common::randomSequence(rng, qlen + rng.below(150)));
    const std::string& t = store.back();
    store.push_back(i % 2 == 0 ? common::mutateSequence(rng, t.substr(0, qlen),
                                                        qlen / 10)
                               : common::randomSequence(rng, qlen));
    areqs.push_back({t, store.back()});
    // Caps: none, or one the random requests blow mid-march.
    dreqs.push_back({t, store.back(), i % 3 == 0 ? -1
                                                 : static_cast<int>(qlen / 4)});
  }
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    core::WindowedBatchScratch scratch;
    std::vector<common::AlignmentResult> ares(areqs.size());
    std::vector<int> dres(dreqs.size(), -2);
    for (int rep = 0; rep < 2; ++rep) {
      const std::uint64_t solver_allocs = solver.scratchAllocs();
      const std::uint64_t scratch_allocs = scratch.allocs();
      core::alignWindowedBatch(solver, cfg, areqs.data(), areqs.size(),
                               ares.data(), scratch);
      core::distanceWindowedBatch(solver, cfg, dreqs.data(), dreqs.size(),
                                  dres.data(), scratch);
      if (rep == 1) {
        EXPECT_EQ(solver.scratchAllocs(), solver_allocs);
        EXPECT_EQ(scratch.allocs(), scratch_allocs);
      }
    }
    for (std::size_t i = 0; i < areqs.size(); ++i) {
      const std::string ctx =
          std::string(simd::isaName(level)) + " i=" + std::to_string(i);
      const auto want =
          core::alignWindowedImproved(areqs[i].target, areqs[i].query, cfg);
      EXPECT_EQ(ares[i].ok, want.ok) << ctx;
      EXPECT_EQ(ares[i].edit_distance, want.edit_distance) << ctx;
      EXPECT_EQ(ares[i].cigar, want.cigar) << ctx;
      EXPECT_EQ(dres[i],
                core::distanceWindowedImproved(dreqs[i].target, dreqs[i].query,
                                               cfg, {}, dreqs[i].cap))
          << ctx;
    }
  }
}

// The GenASM traceback is ONE implementation (genasm::walkTraceback):
// the baseline solver, the improved solver under every options mask, and
// the SIMD lane solver are probe+emit adapters over the same walk. This
// regression pins them op-for-op — including truncation at tb_op_limit
// and BothEnds bulk-deletion tails — so any future fork of the walk
// logic in one backend fails here.
TEST(TracebackUnification, AllBackendsCommitIdenticalOperationSequences) {
  util::Xoshiro256 rng(90210);
  std::vector<std::string> store;
  auto problems = randomProblems(rng, 32, 120, store);
  // Force tight traceback budgets on half the set so Truncated walks are
  // exercised, not just Complete ones.
  for (std::size_t i = 0; i < problems.size(); i += 2) {
    problems[i].tb_op_limit =
        static_cast<int>(1 + rng.below(problems[i].pattern.size() + 4));
  }
  simd::SimdBatchSolver solver;
  for (const auto anchor :
       {genasm::Anchor::StartOnly, genasm::Anchor::BothEnds}) {
    std::vector<genasm::WindowResult> lane(problems.size());
    solver.alignBatch(anchor, problems.data(), problems.size(), lane.data());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto base = scalarSolve(problems[i], anchor, true);
      const std::string ctx = "i=" + std::to_string(i) +
                              " tb=" + std::to_string(problems[i].tb_op_limit);
      expectSameWindowResult(lane[i], base, ctx + " (lane vs baseline)");
      for (int mask = 0; mask < 8; ++mask) {
        core::ImprovedOptions opts;
        opts.compress_entries = (mask & 1) != 0;
        opts.early_termination = (mask & 2) != 0;
        opts.traceback_pruning = (mask & 4) != 0;
        expectSameWindowResult(
            scalarSolve(problems[i], anchor, false, opts), base,
            ctx + " (improved mask " + std::to_string(mask) + ")");
      }
    }
  }
}

TEST(SimdWindowedMarch, EmptyAndShortRequests) {
  core::WindowConfig cfg;
  util::Xoshiro256 rng(3);
  const auto t = common::randomSequence(rng, 300);
  const std::vector<core::BatchedDistanceRequest> requests = {
      {t, "", -1},                                    // all deletions
      {t, "", 10},                                    // capped out
      {"", std::string_view(t).substr(0, 40), -1},    // all insertions
      {t, std::string_view(t).substr(0, 40), -1},     // final-window only
  };
  for (const auto level : supportedLevels()) {
    simd::SimdBatchSolver solver(level);
    std::vector<int> got(requests.size(), -2);
    core::distanceWindowedBatch(solver, cfg, requests.data(), requests.size(),
                                got.data());
    EXPECT_EQ(got[0], static_cast<int>(t.size()));
    EXPECT_EQ(got[1], -1);
    EXPECT_EQ(got[2], 40);
    core::WindowBuffers bufs;
    core::ImprovedWindowSolver<1> ref;
    EXPECT_EQ(got[3], core::distanceWindowed(ref, t,
                                             std::string_view(t).substr(0, 40),
                                             cfg, -1, bufs));
  }
}

}  // namespace
}  // namespace gx
