// Fuzz-ish robustness tests for the engine's two text loaders: plan_io's
// parse_plan and BackendHistory::load. Malformed input —
// truncations, garbage lines, wrong counts, duplicate keys, random byte
// mutations — must fail *cleanly*: std::invalid_argument only (never a
// crash or a foreign exception type), no partial state left behind, and the
// engine stays fully usable afterwards. All randomness is seeded; failures
// reproduce exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "engine/history.hpp"
#include "engine/plan_io.hpp"
#include "engine/portfolio.hpp"
#include "engine/wire.hpp"

namespace gridmap::engine {
namespace {

constexpr unsigned kSeed = 20260731;

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

MappingPlan sample_plan() {
  MappingPlan plan;
  plan.signature = "g[4x4;p=00]|s[(0,1)]|a[4*4]|o=jsum";
  plan.mapper = "hyperplane";
  plan.objective = Objective::kJsum;
  plan.jsum = 42;
  plan.jmax = 7;
  plan.cell_of_rank = {3, 1, 0, 2};
  return plan;
}

std::string sample_history_text() {
  BackendHistory history(8);
  InstanceFeatures f{};
  for (int i = 0; i < InstanceFeatures::kCount; ++i) {
    f.v[static_cast<std::size_t>(i)] = 0.5 * (i + 1);
  }
  BackendOutcome outcome;
  outcome.features = f;
  outcome.remap_seconds = 0.0125;
  outcome.jsum = 40;
  outcome.jmax = 9;
  outcome.won = true;
  history.record("blocked", outcome);
  outcome.won = false;
  outcome.remap_seconds = 1.0 / 3.0;
  history.record("blocked", outcome);
  history.record("viem", outcome);
  const std::string path = temp_path("gridmap_fuzz_history_sample.txt");
  history.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return text;
}

// ----------------------------------------------------------------- plan_io --

TEST(FuzzPlanIo, EveryTruncationFailsCleanlyOrParsesTheFullPlan) {
  const std::string text = serialize_plan(sample_plan());
  for (std::size_t len = 0; len < text.size(); ++len) {
    const std::string prefix = text.substr(0, len);
    try {
      const MappingPlan parsed = parse_plan(prefix);
      // The only prefix allowed to parse is the full plan minus the final
      // newline (getline tolerates a missing trailing '\n' on "end").
      EXPECT_EQ(len, text.size() - 1) << "unexpectedly parsed a " << len << "-byte prefix";
      EXPECT_EQ(parsed, sample_plan());
    } catch (const std::invalid_argument&) {
      // clean rejection — expected for almost every prefix
    }
  }
  EXPECT_EQ(parse_plan(text), sample_plan());
}

TEST(FuzzPlanIo, SingleByteMutationsNeverCrashOrMisparse) {
  const std::string text = serialize_plan(sample_plan());
  std::mt19937 rng(kSeed);
  std::uniform_int_distribution<std::size_t> pos_dist(0, text.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = text;
    mutated[pos_dist(rng)] = static_cast<char>(byte_dist(rng));
    try {
      const MappingPlan parsed = parse_plan(mutated);
      // A mutation may survive parsing (e.g. it hit a digit of jsum); the
      // result must still serialize consistently — no torn/corrupt state.
      EXPECT_EQ(parse_plan(serialize_plan(parsed)), parsed);
    } catch (const std::invalid_argument&) {
    }
    // Any other exception type (or a crash) fails the test by itself.
  }
}

TEST(FuzzPlanIo, GarbageAndWrongCountsAreRejected) {
  EXPECT_THROW(parse_plan(""), std::invalid_argument);
  EXPECT_THROW(parse_plan("garbage\n"), std::invalid_argument);
  EXPECT_THROW(parse_plan(std::string(64, '\0')), std::invalid_argument);

  // Declared rank count disagrees with the cell list, both directions.
  for (const char* count : {"ranks 3", "ranks 5", "ranks -1", "ranks x"}) {
    std::string text = serialize_plan(sample_plan());
    const std::size_t pos = text.find("ranks 4");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 7, count);
    EXPECT_THROW(parse_plan(text), std::invalid_argument) << count;
  }
}

// ----------------------------------------------------------------- history --

TEST(FuzzHistory, TruncationLadderNeverLeavesPartialState) {
  const std::string text = sample_history_text();
  const std::string path = temp_path("gridmap_fuzz_history_trunc.txt");
  std::size_t clean_loads = 0;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    write_file(path, text.substr(0, len));
    BackendHistory history(8);
    history.record("sentinel", BackendOutcome{});
    try {
      (void)history.load(path);
      ++clean_loads;
      EXPECT_EQ(history.size("sentinel"), 0u);  // load replaces on success
    } catch (const std::invalid_argument&) {
      // Failed load must leave the pre-existing contents untouched.
      EXPECT_EQ(history.size("sentinel"), 1u) << "partial state at len " << len;
      EXPECT_EQ(history.size(), 1u) << "partial state at len " << len;
    }
  }
  EXPECT_GT(clean_loads, 0u);  // at least the full file loads
  std::remove(path.c_str());
}

TEST(FuzzHistory, WrongCountsAndGarbageAreRejectedWithoutPartialState) {
  const std::string path = temp_path("gridmap_fuzz_history_bad.txt");
  const std::string valid_block =
      "backend blocked\ncount 1\no 1 10 3 0.5 1 2 3 4 5 6 7 8 9\nend\n";

  const std::vector<std::string> bad_files = {
      "",                                                    // empty, no header
      "gridmap-history v2\n",                                // wrong version
      "gridmap-history v1\nbackend b\ncount 2\n"             // declared 2, has 1
      "o 1 10 3 0.5 1 2 3 4 5 6 7 8 9\nend\n",
      "gridmap-history v1\nbackend b\ncount 0\n"             // declared 0, has 1
      "o 1 10 3 0.5 1 2 3 4 5 6 7 8 9\nend\n",
      "gridmap-history v1\nbackend b\ncount -1\nend\n",      // negative count
      "gridmap-history v1\nbackend b\ncount x\nend\n",       // non-numeric count
      "gridmap-history v1\nbackend b\ncount 1\n"             // too few features
      "o 1 10 3 0.5 1 2 3\nend\n",
      "gridmap-history v1\nbackend b\ncount 1\n"             // trailing junk
      "o 1 10 3 0.5 1 2 3 4 5 6 7 8 9 10\nend\n",
      "gridmap-history v1\nbackend b\ncount 1\n"             // won flag not 0/1
      "o 2 10 3 0.5 1 2 3 4 5 6 7 8 9\nend\n",
      "gridmap-history v1\nbackend b\ncount 1\n"             // negative remap time
      "o 1 10 3 -0.5 1 2 3 4 5 6 7 8 9\nend\n",
      "gridmap-history v1\nbackend b\ncount 1\n"             // garbage values
      "o 1 ten three fast 1 2 3 4 5 6 7 8 9\nend\n",
      "gridmap-history v1\nnot-a-backend-line\n",            // garbage structure
      "gridmap-history v1\n" + valid_block + valid_block,    // duplicate backend key
  };

  for (std::size_t i = 0; i < bad_files.size(); ++i) {
    write_file(path, bad_files[i]);
    BackendHistory history(8);
    history.record("sentinel", BackendOutcome{});
    EXPECT_THROW(history.load(path), std::invalid_argument) << "file " << i;
    EXPECT_EQ(history.size(), 1u) << "partial state from file " << i;
    EXPECT_EQ(history.size("sentinel"), 1u) << "file " << i;
  }
  // The valid block alone still loads — the harness rejects for the right
  // reason, not because the block syntax drifted.
  write_file(path, "gridmap-history v1\n" + valid_block);
  BackendHistory history(8);
  EXPECT_EQ(history.load(path), 1u);
  std::remove(path.c_str());
}

TEST(FuzzHistory, SingleByteMutationsNeverCrashTheLoader) {
  const std::string text = sample_history_text();
  const std::string path = temp_path("gridmap_fuzz_history_mut.txt");
  std::mt19937 rng(kSeed + 1);
  std::uniform_int_distribution<std::size_t> pos_dist(0, text.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = text;
    mutated[pos_dist(rng)] = static_cast<char>(byte_dist(rng));
    write_file(path, mutated);
    BackendHistory history(8);
    try {
      (void)history.load(path);  // surviving mutations are fine (hit a digit)
    } catch (const std::invalid_argument&) {
    }
    // Anything else — crash, std::bad_alloc, parse UB — fails the test.
  }
  std::remove(path.c_str());
}

TEST(FuzzHistory, StoreStaysUsableAfterFailedLoads) {
  const std::string path = temp_path("gridmap_fuzz_history_usable.txt");
  write_file(path, "gridmap-history v1\nbackend b\ncount 9\ntruncated");
  BackendHistory history(8);
  EXPECT_THROW(history.load(path), std::invalid_argument);

  // Still records, snapshots, and persists normally.
  history.record("blocked", BackendOutcome{});
  EXPECT_EQ(history.size(), 1u);
  history.save(path);
  BackendHistory reloaded(8);
  EXPECT_EQ(reloaded.load(path), 1u);
  std::remove(path.c_str());
}

TEST(FuzzEngine, EngineStaysUsableWithCorruptPersistenceFiles) {
  // A corrupt history file: the engine must construct, race, and shut down
  // (rewriting the file) without ever throwing at the user.
  EngineOptions options;
  options.threads = 1;
  options.max_backends = 3;
  options.history_file = temp_path("gridmap_fuzz_engine_history.txt");
  write_file(options.history_file, "not a history\n");
  {
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);
    const auto plan = engine.map(CartesianGrid({4, 4}), Stencil::nearest_neighbor(2),
                                 NodeAllocation::homogeneous(4, 4));
    ASSERT_NE(plan, nullptr);
  }
  // Shutdown rewrote the file with valid contents.
  BackendHistory history(8);
  EXPECT_GT(history.load(options.history_file), 0u);
  std::remove(options.history_file.c_str());
}

// ------------------------------------------------------------- wire lines --
// The GRIDMAP/1 request-line splitter (engine/wire.hpp) faces raw network
// bytes, so it gets the same treatment as the file loaders: arbitrary torn
// input must never crash it, never buffer unboundedly, and never change
// which lines are extracted.

TEST(FuzzWire, ChunkBoundariesNeverChangeTheExtractedLines) {
  std::mt19937 rng(kSeed);
  const std::string text =
      "map 6x8 00 nn 6 8\nstats\nmap 16x12x8 000 hops 32 48 high\nshutdown\n";
  std::vector<std::string> reference;
  {
    wire::LineBuffer lines;
    lines.feed(text);
    std::string line;
    while (lines.next(line) == wire::LineBuffer::Status::kLine) reference.push_back(line);
  }
  ASSERT_EQ(reference.size(), 4u);

  for (int round = 0; round < 200; ++round) {
    wire::LineBuffer lines;
    std::vector<std::string> got;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::uniform_int_distribution<std::size_t> pick(1, text.size() - pos);
      const std::size_t n = pick(rng);
      lines.feed(std::string_view(text).substr(pos, n));
      pos += n;
      std::string line;
      while (lines.next(line) == wire::LineBuffer::Status::kLine) got.push_back(line);
    }
    EXPECT_EQ(got, reference) << "round " << round;
  }
}

TEST(FuzzWire, RandomGarbageNeverCrashesAndMemoryStaysBounded) {
  std::mt19937 rng(kSeed + 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> chunk_size(1, 512);
  for (int round = 0; round < 100; ++round) {
    wire::LineBuffer lines;
    for (int chunk = 0; chunk < 64; ++chunk) {
      std::string data(chunk_size(rng), '\0');
      for (char& c : data) c = static_cast<char>(byte(rng));
      lines.feed(data);
      std::string line;
      wire::LineBuffer::Status status;
      while ((status = lines.next(line)) == wire::LineBuffer::Status::kLine) {
        EXPECT_LE(line.size(), wire::kMaxRequestLine);
      }
      // Whatever arrived, the buffer never exceeds cap + one feed chunk.
      EXPECT_LE(lines.buffered(), wire::kMaxRequestLine + data.size());
      if (status == wire::LineBuffer::Status::kTooLong ||
          status == wire::LineBuffer::Status::kBadByte) {
        // Faults stick and hold no memory — exactly like the file loaders'
        // all-or-nothing contract, there is no partial state to leak.
        EXPECT_EQ(lines.buffered(), 0u);
      }
    }
  }
}

TEST(FuzzWire, NewlineFreeFloodTripsTooLongAtTheCapNotAtOom) {
  wire::LineBuffer lines;
  std::string line;
  std::size_t fed = 0;
  // Feed far more newline-free data than the cap; the buffer must fault at
  // the cap instead of absorbing all of it.
  for (int i = 0; i < 64; ++i) {
    lines.feed(std::string(1024, 'z'));
    fed += 1024;
    if (lines.next(line) == wire::LineBuffer::Status::kTooLong) break;
  }
  EXPECT_EQ(lines.next(line), wire::LineBuffer::Status::kTooLong);
  EXPECT_LE(fed, wire::kMaxRequestLine + 1024);
  EXPECT_EQ(lines.buffered(), 0u);
}

}  // namespace
}  // namespace gridmap::engine
