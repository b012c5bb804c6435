// pb_gen — make one benchmark workload's inputs from a seed.
//
//   pb_gen --seed S --out DIR --genome BP --contigs N --reads N
//          --min-length BP --max-length BP
//   pb_gen --isa          (print the active SIMD level and exit)
//
// Writes DIR/ref.fa (a repeat-rich genome from readsim::generateGenome,
// cut into N contigs of seeded, uneven lengths) and DIR/reads.fq (reads
// from readsim::simulateReads over that multi-contig Reference, with the
// PacBio CLR error profile). Read names keep the simulator's truth
// encoding read_<i>!<contig>!<pos>!<s>, which is all the checker needs;
// the programs under test only ever see these two files. The same
// arguments always give the same bytes.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/readsim/genome.hpp"
#include "genasmx/readsim/read_simulator.hpp"
#include "genasmx/refmodel/reference.hpp"
#include "genasmx/simd/dispatch.hpp"
#include "genasmx/util/prng.hpp"

int main(int argc, char** argv) {
  using namespace gx;
  std::size_t seed = 0;
  std::string out_dir;
  std::size_t genome_bp = 0;
  std::size_t contigs = 0;
  std::size_t reads = 0;
  std::size_t min_len = 0;
  std::size_t max_len = 0;
  bool isa = false;
  cli::Parser cli;
  cli.flag("--isa", isa);
  cli.option("--seed", seed);
  cli.option("--out", out_dir);
  cli.option("--genome", genome_bp);
  cli.option("--contigs", contigs);
  cli.option("--reads", reads);
  cli.option("--min-length", min_len);
  cli.option("--max-length", max_len);
  const bool parsed = cli.parse(argc, argv);
  if (parsed && isa) {
    std::printf("%s\n", std::string(simd::isaName(simd::activeIsa())).c_str());
    return 0;
  }
  if (!parsed || out_dir.empty() || genome_bp == 0 ||
      contigs == 0 || reads == 0 || min_len == 0 || max_len < min_len) {
    std::fprintf(stderr,
                 "usage: pb_gen --seed S --out DIR --genome BP --contigs N "
                 "--reads N --min-length BP --max-length BP\n");
    return 2;
  }

  util::Xoshiro256 rng(seed);
  readsim::GenomeConfig gcfg;
  gcfg.length = genome_bp;
  gcfg.repeat_fraction = 0.15;
  gcfg.repeat_unit = 3'000;
  gcfg.repeat_divergence = 0.02;
  gcfg.seed = rng();
  const std::string genome = readsim::generateGenome(gcfg);

  // Contig lengths: uneven cuts, each at least half the mean, so every
  // contig can hold the longest read's sampling span.
  std::vector<double> weights(contigs);
  double total = 0;
  for (double& w : weights) total += (w = 1.0 + rng.uniform01());
  refmodel::Reference ref;
  std::vector<io::FastxRecord> ref_records;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < contigs; ++c) {
    const std::size_t len =
        c + 1 == contigs
            ? genome_bp - begin
            : static_cast<std::size_t>(static_cast<double>(genome_bp) *
                                       weights[c] / total);
    io::FastxRecord rec;
    rec.name = "ctg" + std::to_string(c + 1);
    rec.seq = genome.substr(begin, len);
    ref.addContig(rec.name, rec.seq);
    ref_records.push_back(std::move(rec));
    begin += len;
  }

  // One simulateReads call per read, so each read has its own length in
  // [min, max]; the index in the name is then rewritten to keep names
  // unique.
  std::vector<io::FastxRecord> out;
  out.reserve(reads);
  util::Xoshiro256 len_rng(rng());
  for (std::size_t i = 0; i < reads; ++i) {
    const std::size_t len = static_cast<std::size_t>(
        len_rng.range(static_cast<std::int64_t>(min_len),
                      static_cast<std::int64_t>(max_len)));
    readsim::ReadSimConfig cfg = readsim::ReadSimConfig::pacbioClr(1, len);
    cfg.seed = len_rng();
    readsim::SimulatedRead r =
        std::move(readsim::simulateReads(ref, cfg).front());
    io::FastxRecord rec;
    rec.name = "read_" + std::to_string(i) + r.name.substr(r.name.find('!'));
    rec.seq = std::move(r.seq);
    rec.qual.assign(rec.seq.size(), 'I');
    out.push_back(std::move(rec));
  }

  try {
    io::writeFastxFile(out_dir + "/ref.fa", ref_records);
    io::writeFastxFile(out_dir + "/reads.fq", out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
