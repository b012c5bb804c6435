// pb_openloop — open-loop load generator for genasmx_mapd.
//
//   pb_openloop --unix PATH --reads FILE --seed S --connections N
//               --rate R --requests N --min-reads A --max-reads B
//               --log FILE
//
// Sends N MAP requests on a seeded Poisson schedule of R requests/s. A
// request carries A..B consecutive reads of the pool in FILE (wrapping
// to the start). Requests go round-robin over the pipelined
// connections: one sender thread writes frames at their due times
// through MapClient::sendRaw and never waits for a reply, and one reader
// thread per connection collects replies with readReply. So a slow
// server delays no arrival, and each latency is taken from the
// request's due time, not its send time (the wait a stall imposes on
// later requests is counted). The run ends when every reply is in.
//
// The log has one line per request:
//   id start count due_us sent_us done_us status reads crc32 bytes
// status is OK, or the ERR reason, or "wire" for a transport failure.
// crc32 is over the reply body, so the caller can compare each reply
// with the batch mapper's PAF for the same reads.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "cli.hpp"
#include "genasmx/io/fastx.hpp"
#include "genasmx/server/client.hpp"
#include "genasmx/util/prng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Request {
  std::size_t start = 0;
  std::size_t count = 0;
  double due_us = 0;
  double sent_us = -1;
  double done_us = -1;
  std::string status = "wire";
  std::uint64_t reads = 0;
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
};

std::uint32_t crc32(const std::string& s) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (unsigned char ch : s) c = table[(c ^ ch) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gx;
  std::string unix_path, reads_path, log_path;
  std::size_t seed = 0, connections = 0, requests = 0, min_reads = 0,
              max_reads = 0;
  double rate = 0;
  cli::Parser cli;
  cli.option("--unix", unix_path);
  cli.option("--reads", reads_path);
  cli.option("--seed", seed);
  cli.option("--connections", connections);
  cli.option("--rate", rate);
  cli.option("--requests", requests);
  cli.option("--min-reads", min_reads);
  cli.option("--max-reads", max_reads);
  cli.option("--log", log_path);
  if (!cli.parse(argc, argv) || unix_path.empty() || reads_path.empty() ||
      log_path.empty() || connections == 0 || connections > 64 ||
      !(rate > 0) || requests == 0 || min_reads == 0 ||
      max_reads < min_reads) {
    std::fprintf(stderr,
                 "usage: pb_openloop --unix PATH --reads FILE --seed S "
                 "--connections N --rate R --requests N --min-reads A "
                 "--max-reads B --log FILE\n");
    return 2;
  }

  std::vector<std::string> pool;
  try {
    for (const auto& r : io::readFastxFile(reads_path)) {
      pool.push_back("@" + r.name + "\n" + r.seq + "\n+\n" + r.qual + "\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (pool.size() < max_reads) {
    std::fprintf(stderr, "error: pool has fewer than --max-reads reads\n");
    return 1;
  }

  // The whole schedule is fixed before the first send: seeded sizes,
  // pool positions and exponential gaps.
  util::Xoshiro256 rng(seed);
  std::vector<Request> reqs(requests);
  std::size_t cursor = 0;
  double t = 0;
  for (Request& r : reqs) {
    r.count = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(min_reads),
                  static_cast<std::int64_t>(max_reads)));
    if (cursor + r.count > pool.size()) cursor = 0;
    r.start = cursor;
    cursor += r.count;
    r.due_us = t;
    t += -std::log(1.0 - rng.uniform01()) / rate * 1e6;
  }

  std::vector<server::MapClient> conns(connections);
  for (auto& c : conns) {
    const common::Status st = c.connectUnix(unix_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return 1;
    }
  }

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      const std::size_t expected =
          requests / connections + (c < requests % connections ? 1 : 0);
      server::ResponseHeader reply;
      std::string body;
      for (std::size_t n = 0; n < expected; ++n) {
        if (!conns[c].readReply(reply, body).ok()) return;
        const std::size_t id = std::stoull(reply.id);
        if (id >= requests) return;
        Request& r = reqs[id];
        r.done_us = since(t0);
        r.status = reply.ok ? "OK" : reply.reason;
        r.reads = reply.reads;
        r.crc = crc32(body);
        r.bytes = body.size();
      }
    });
  }
  std::string frame;
  for (std::size_t i = 0; i < requests; ++i) {
    Request& r = reqs[i];
    std::this_thread::sleep_until(
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(r.due_us)));
    std::string payload;
    for (std::size_t k = 0; k < r.count; ++k) payload += pool[r.start + k];
    frame = "MAP id=" + std::to_string(i) +
            " bytes=" + std::to_string(payload.size()) + "\n" + payload;
    r.sent_us = since(t0);
    if (!conns[i % connections].sendRaw(frame).ok()) {
      // Requests a broken connection never answered keep status "wire";
      // shutting every socket down unblocks readers still waiting on
      // them.
      for (auto& c : conns) ::shutdown(c.fd(), SHUT_RDWR);
      break;
    }
  }
  for (auto& th : readers) th.join();

  std::ofstream log(log_path);
  for (std::size_t i = 0; i < requests; ++i) {
    const Request& r = reqs[i];
    log << i << ' ' << r.start << ' ' << r.count << ' '
        << static_cast<std::int64_t>(r.due_us) << ' '
        << static_cast<std::int64_t>(r.sent_us) << ' '
        << static_cast<std::int64_t>(r.done_us) << ' ' << r.status << ' '
        << r.reads << ' ' << r.crc << ' ' << r.bytes << '\n';
  }
  log.close();
  if (!log) {
    std::fprintf(stderr, "error: cannot write %s\n", log_path.c_str());
    return 1;
  }
  return 0;
}
