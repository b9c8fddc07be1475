#include "storage/page_file.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "rstar/rstar_tree.h"
#include "testing/fault_policy.h"
#include "ts/generate.h"

namespace tsq::storage {
namespace {

// Read-side checksums computed so far, summed over every PageFile.
std::uint64_t Verifications() {
  return obs::MetricsRegistry::Global()
      .counter("storage.page_file.verifications")
      ->value();
}

Page PatternPage(std::uint8_t seed) {
  Page page;
  for (std::size_t i = 0; i < kPageSize; ++i) {
    page.bytes[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return page;
}

TEST(PageFileTest, AllocateReturnsSequentialIds) {
  PageFile file;
  EXPECT_EQ(file.Allocate(), 0u);
  EXPECT_EQ(file.Allocate(), 1u);
  EXPECT_EQ(file.Allocate(), 2u);
  EXPECT_EQ(file.page_count(), 3u);
}

TEST(PageFileTest, WriteThenReadRoundTrip) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  for (std::size_t i = 0; i < kPageSize; ++i) {
    page.bytes[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(file.Write(id, page).ok());
  Page read;
  ASSERT_TRUE(file.Read(id, &read).ok());
  EXPECT_EQ(read.bytes, page.bytes);
}

TEST(PageFileTest, FreshPageIsZeroed) {
  PageFile file;
  const PageId id = file.Allocate();
  Page read;
  ASSERT_TRUE(file.Read(id, &read).ok());
  for (std::uint8_t b : read.bytes) EXPECT_EQ(b, 0);
}

TEST(PageFileTest, ReadBeyondEndFails) {
  PageFile file;
  file.Allocate();
  Page page;
  EXPECT_EQ(file.Read(5, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.Write(5, page).code(), StatusCode::kOutOfRange);
}

TEST(PageFileTest, CountsReadsAndWrites) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.Read(id, &page).ok());
  ASSERT_TRUE(file.Read(id, &page).ok());
  EXPECT_EQ(file.stats().allocations, 1u);
  EXPECT_EQ(file.stats().writes, 1u);
  EXPECT_EQ(file.stats().reads, 2u);
  file.ResetStats();
  EXPECT_EQ(file.stats().reads, 0u);
  EXPECT_EQ(file.stats().writes, 0u);
}

TEST(PageFileTest, SimulatedReadDelaySlowsReads) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  // With a 200us delay, 50 reads must take at least 10ms.
  file.set_read_delay_nanos(200000);
  EXPECT_EQ(file.read_delay_nanos(), 200000u);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(file.Read(id, &page).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.010);
  // Disabling restores fast reads (no strict timing assertion needed).
  file.set_read_delay_nanos(0);
  ASSERT_TRUE(file.Read(id, &page).ok());
}

TEST(PageFileTest, DetectsCorruption) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  page.bytes[100] = 42;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.CorruptForTesting(id, 100).ok());
  Page read;
  EXPECT_EQ(file.Read(id, &read).code(), StatusCode::kCorruption);
}

TEST(PageFileTest, RewriteAfterCorruptionHeals) {
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.CorruptForTesting(id, 0).ok());
  // A fresh write recomputes the checksum.
  ASSERT_TRUE(file.Write(id, page).ok());
  Page read;
  EXPECT_TRUE(file.Read(id, &read).ok());
}

class PageFilePersistenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  // Per-test path: ctest discovers each test as its own process and runs
  // them in parallel, so a shared path would race.
  std::string path_ =
      ::testing::TempDir() + "/tsq_pages_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
};

TEST_F(PageFilePersistenceTest, SaveLoadRoundTrip) {
  PageFile file;
  for (int i = 0; i < 5; ++i) {
    const PageId id = file.Allocate();
    Page page;
    for (std::size_t b = 0; b < kPageSize; ++b) {
      page.bytes[b] = static_cast<std::uint8_t>(i * 31 + b);
    }
    ASSERT_TRUE(file.Write(id, page).ok());
  }
  ASSERT_TRUE(file.SaveTo(path_).ok());

  PageFile loaded;
  ASSERT_TRUE(loaded.LoadFrom(path_).ok());
  ASSERT_EQ(loaded.page_count(), 5u);
  for (PageId id = 0; id < 5; ++id) {
    Page original, copy;
    ASSERT_TRUE(file.Read(id, &original).ok());
    ASSERT_TRUE(loaded.Read(id, &copy).ok());
    EXPECT_EQ(original.bytes, copy.bytes);
  }
  // Counters start fresh after a load (minus the reads above).
  loaded.ResetStats();
  EXPECT_EQ(loaded.stats().reads, 0u);
}

TEST_F(PageFilePersistenceTest, EmptyFileRoundTrip) {
  PageFile file;
  ASSERT_TRUE(file.SaveTo(path_).ok());
  PageFile loaded;
  ASSERT_TRUE(loaded.LoadFrom(path_).ok());
  EXPECT_EQ(loaded.page_count(), 0u);
}

TEST_F(PageFilePersistenceTest, RejectsGarbageAndTruncation) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a page file";
  }
  PageFile loaded;
  EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption);

  // Valid header claiming more pages than the file holds.
  PageFile file;
  file.Allocate();
  file.Allocate();
  ASSERT_TRUE(file.SaveTo(path_).ok());
  std::error_code ec;
  std::filesystem::resize_file(path_, 16 + kPageSize, ec);
  ASSERT_FALSE(ec);
  EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption);

  EXPECT_EQ(loaded.LoadFrom("/nonexistent/nope.bin").code(),
            StatusCode::kIoError);
}

TEST_F(PageFilePersistenceTest, LoadedPagesSpanChunksAndStartVerified) {
  // More pages than one storage chunk holds, so save and load both cross a
  // chunk boundary.
  constexpr std::size_t kPages = 300;
  PageFile file;
  for (std::size_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(
        file.Write(file.Allocate(), PatternPage(static_cast<std::uint8_t>(p)))
            .ok());
  }
  ASSERT_TRUE(file.SaveTo(path_).ok());
  PageFile loaded;
  ASSERT_TRUE(loaded.LoadFrom(path_).ok());
  ASSERT_EQ(loaded.page_count(), kPages);
  // LoadFrom checked every page against its persisted checksum, so no read
  // checks one again.
  const std::uint64_t before = Verifications();
  PageScratch scratch;
  for (std::size_t p = 0; p < kPages; ++p) {
    const Result<const Page*> view =
        loaded.View(static_cast<PageId>(p), &scratch);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ((*view)->bytes,
              PatternPage(static_cast<std::uint8_t>(p)).bytes);
  }
  EXPECT_EQ(Verifications(), before);
}

TEST(PageFileTest, FailedIosLeaveCountersUntouched) {
  // Convention: only successful I/Os count. Neither a failed Read
  // (OutOfRange, Corruption) nor a failed Write (OutOfRange) moves the
  // counters.
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  ASSERT_TRUE(file.Write(id, page).ok());
  file.ResetStats();

  EXPECT_EQ(file.Read(99, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.Write(99, page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.stats().reads, 0u);
  EXPECT_EQ(file.stats().writes, 0u);

  ASSERT_TRUE(file.CorruptForTesting(id, 5).ok());
  EXPECT_EQ(file.Read(id, &page).code(), StatusCode::kCorruption);
  EXPECT_EQ(file.stats().reads, 0u);

  // A successful read after healing counts exactly once.
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.Read(id, &page).ok());
  EXPECT_EQ(file.stats().reads, 1u);
  EXPECT_EQ(file.stats().writes, 1u);
}

TEST_F(PageFilePersistenceTest, CorruptionSurvivesSaveAndIsReportedOnLoad) {
  // CorruptForTesting leaves the stored checksum stale; SaveTo persists the
  // checksums, so LoadFrom must flag the corrupted page instead of
  // recomputing a "valid" checksum from the corrupted bytes.
  PageFile file;
  const PageId id = file.Allocate();
  Page page;
  page.bytes[11] = 23;
  ASSERT_TRUE(file.Write(id, page).ok());
  ASSERT_TRUE(file.CorruptForTesting(id, 11).ok());
  ASSERT_TRUE(file.SaveTo(path_).ok());

  PageFile loaded;
  EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.page_count(), 0u);  // a failed load commits nothing
}

TEST_F(PageFilePersistenceTest, OnDiskCorruptionIsReportedOnLoad) {
  PageFile file;
  for (int i = 0; i < 3; ++i) {
    const PageId id = file.Allocate();
    Page page;
    page.bytes[0] = static_cast<std::uint8_t>(40 + i);
    ASSERT_TRUE(file.Write(id, page).ok());
  }
  ASSERT_TRUE(file.SaveTo(path_).ok());

  // Flip one byte in the middle page's on-disk image (header is
  // magic + count + 3 checksums = 5 * 8 bytes).
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(5 * 8 + kPageSize + 100, std::ios::beg);
    f.put(static_cast<char>(0xEE));
  }
  PageFile loaded;
  const Status status = loaded.LoadFrom(path_);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("page 1"), std::string::npos);

  // An untampered copy still loads and verifies.
  ASSERT_TRUE(file.SaveTo(path_).ok());
  EXPECT_TRUE(loaded.LoadFrom(path_).ok());
  EXPECT_EQ(loaded.page_count(), 3u);
}

TEST_F(PageFilePersistenceTest, RejectsLegacyV1Format) {
  // A v1 file (old magic, no checksum block) cannot be verified; loading it
  // must fail closed rather than re-blessing whatever bytes are present.
  constexpr std::uint64_t kV1Magic = 0x545351504147u;
  const std::uint64_t count = 1;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&kV1Magic), sizeof kV1Magic);
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    const std::vector<char> zeros(kPageSize, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  PageFile loaded;
  const Status status = loaded.LoadFrom(path_);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("v1"), std::string::npos);
}

TEST_F(PageFilePersistenceTest, HugePageCountIsCorruptionNotBadAlloc) {
  PageFile file;
  file.Allocate();
  ASSERT_TRUE(file.SaveTo(path_).ok());
  // Patch the header's page count to something no allocator survives; the
  // load must bound it against the file size, not trust it.
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 60, std::uint64_t{0} - 1, std::uint64_t{2}}) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
    f.close();
    PageFile loaded;
    EXPECT_EQ(loaded.LoadFrom(path_).code(), StatusCode::kCorruption)
        << "count=" << huge;
  }
}

TEST_F(PageFilePersistenceTest, SaveLeavesOldFileIntactOnInjectedCrash) {
  PageFile first;
  const PageId id = first.Allocate();
  Page page;
  page.bytes[0] = 42;
  ASSERT_TRUE(first.Write(id, page).ok());
  ASSERT_TRUE(first.SaveTo(path_).ok());

  // Crash a bigger save at every write step: the file at `path_` must stay
  // byte-for-byte loadable as the first save's content.
  PageFile second;
  second.Allocate();
  second.Allocate();
  for (std::uint64_t step = 1;; ++step) {
    testing::CrashPolicy policy(step);
    const Status saved = second.SaveTo(path_, &policy);
    PageFile loaded;
    ASSERT_TRUE(loaded.LoadFrom(path_).ok()) << "step " << step;
    if (saved.ok()) {
      EXPECT_EQ(loaded.page_count(), 2u);
      break;
    }
    // Before the rename the old single-page file survives; a crash on the
    // directory sync lands after the rename, so the new file is already
    // (atomically) published. Anything else — a torn or mixed file — fails
    // the LoadFrom above.
    if (loaded.page_count() == 1u) {
      Page check;
      ASSERT_TRUE(loaded.Read(id, &check).ok());
      EXPECT_EQ(check.bytes[0], 42);
    } else {
      EXPECT_EQ(loaded.page_count(), 2u) << "step " << step;
      EXPECT_STREQ(policy.crashed_step().c_str(), "dirsync")
          << "step " << step;
    }
    ASSERT_LT(step, 100u) << "crash sweep did not terminate";
    std::error_code ec;
    std::filesystem::remove(path_ + ".tmp", ec);  // crash debris
  }
}

TEST(PageFileTest, ViewReturnsStoredBytesAndCountsLikeRead) {
  PageFile file;
  const PageId id = file.Allocate();
  const Page page = PatternPage(3);
  ASSERT_TRUE(file.Write(id, page).ok());
  PageScratch scratch;
  const Result<const Page*> view = file.View(id, &scratch);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->bytes, page.bytes);
  // Without a fault hook the view is the stored page, not a copy.
  EXPECT_FALSE(scratch.has_value());
  EXPECT_EQ(file.stats().reads, 1u);
  EXPECT_EQ(file.View(5, &scratch).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(file.stats().reads, 1u);
}

TEST(PageFileTest, ViewUnderHookDeliversThroughScratch) {
  PageFile file;
  const PageId id = file.Allocate();
  const Page page = PatternPage(4);
  ASSERT_TRUE(file.Write(id, page).ok());
  tsq::testing::FaultPolicy pass_through;
  file.SetFaultHook(&pass_through);
  PageScratch scratch;
  const Result<const Page*> view = file.View(id, &scratch);
  file.SetFaultHook(nullptr);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(scratch.has_value());
  EXPECT_EQ(*view, &*scratch);
  EXPECT_EQ((*view)->bytes, page.bytes);
  EXPECT_EQ(pass_through.reads_seen(), 1u);
  EXPECT_EQ(file.stats().reads, 1u);
}

TEST(PageFileTest, VerifiedPageCorruptedLaterFailsViewAndRead) {
  PageFile file;
  const PageId id = file.Allocate();
  ASSERT_TRUE(file.Write(id, PatternPage(5)).ok());
  PageScratch scratch;
  Page copy;
  ASSERT_TRUE(file.View(id, &scratch).ok());
  ASSERT_TRUE(file.Read(id, &copy).ok());
  ASSERT_TRUE(file.CorruptForTesting(id, 77).ok());
  EXPECT_EQ(file.View(id, &scratch).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(file.Read(id, &copy).code(), StatusCode::kCorruption);
  // Still caught on every later read, not only the first.
  EXPECT_EQ(file.View(id, &scratch).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(file.stats().reads, 2u);
}

TEST(PageFileTest, UnchangedPageIsVerifiedOnce) {
  PageFile file;
  const PageId id = file.Allocate();
  PageScratch scratch;
  Page copy;
  const std::uint64_t before = Verifications();
  ASSERT_TRUE(file.View(id, &scratch).ok());
  ASSERT_TRUE(file.Read(id, &copy).ok());
  EXPECT_EQ(Verifications() - before, 1u);
  ASSERT_TRUE(file.CorruptForTesting(id, 0).ok());
  EXPECT_FALSE(file.Read(id, &copy).ok());
  EXPECT_EQ(Verifications() - before, 2u);
}

TEST(PageFileTest, WriteRearmsVerification) {
  PageFile file;
  const PageId id = file.Allocate();
  PageScratch scratch;
  ASSERT_TRUE(file.Write(id, PatternPage(6)).ok());
  const std::uint64_t before = Verifications();
  ASSERT_TRUE(file.View(id, &scratch).ok());
  ASSERT_TRUE(file.View(id, &scratch).ok());
  EXPECT_EQ(Verifications() - before, 1u);
  const Page rewritten = PatternPage(7);
  ASSERT_TRUE(file.Write(id, rewritten).ok());
  const Result<const Page*> view = file.View(id, &scratch);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->bytes, rewritten.bytes);
  EXPECT_EQ(Verifications() - before, 2u);
}

TEST(PageFileTest, ViewSurvivesLaterAllocations) {
  PageFile file;
  const PageId id = file.Allocate();
  const Page page = PatternPage(8);
  ASSERT_TRUE(file.Write(id, page).ok());
  PageScratch scratch;
  const Result<const Page*> view = file.View(id, &scratch);
  ASSERT_TRUE(view.ok());
  for (int i = 0; i < 10000; ++i) file.Allocate();
  // Pages live in chunks that never move: the old view is still the page.
  EXPECT_EQ((*view)->bytes, page.bytes);
  const Result<const Page*> again = file.View(id, &scratch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *view);
}

TEST(PageFileTest, ConcurrentFirstViewsVerifyEachPageOnce) {
  constexpr std::size_t kPages = 64;
  constexpr int kThreads = 4;
  PageFile file;
  std::vector<Page> expected;
  for (std::size_t p = 0; p < kPages; ++p) {
    expected.push_back(PatternPage(static_cast<std::uint8_t>(p)));
    ASSERT_TRUE(file.Write(file.Allocate(), expected.back()).ok());
  }
  const std::uint64_t before = Verifications();
  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      PageScratch scratch;
      for (std::size_t p = 0; p < kPages; ++p) {
        const Result<const Page*> view =
            file.View(static_cast<PageId>(p), &scratch);
        if (!view.ok() || (*view)->bytes != expected[p].bytes) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(Verifications() - before, kPages);
  EXPECT_EQ(file.stats().reads, kPages * kThreads);
}

// The two fault kinds that damage a delivered page, each injected on the
// first read the hook sees.
std::vector<tsq::testing::FaultPolicyConfig> DamagingFaults() {
  tsq::testing::FaultPolicyConfig corrupt;
  corrupt.corrupt_nth_read = 1;
  tsq::testing::FaultPolicyConfig torn;
  torn.short_nth_read = 1;
  torn.short_read_bytes = 16;
  return {corrupt, torn};
}

TEST(PageFileTest, HookDamageOnVerifiedRecordPageFailsFetchSpectrum) {
  ts::RandomWalkConfig config;
  config.num_series = 8;
  config.length = 64;
  core::Dataset dataset(ts::GenerateRandomWalks(config),
                        transform::FeatureLayout{});
  ASSERT_TRUE(dataset.FetchSpectrum(0).ok());  // verifies the page
  for (const auto& faults : DamagingFaults()) {
    tsq::testing::FaultPolicy policy(faults);
    dataset.SetReadFaultHook(&policy);
    EXPECT_EQ(dataset.FetchSpectrum(0).status().code(),
              StatusCode::kCorruption)
        << policy.Describe();
    dataset.SetReadFaultHook(nullptr);
    EXPECT_EQ(policy.faults_injected(), 1u);
  }
  // The damage was to the delivered copies only.
  const auto healthy = dataset.FetchSpectrum(0);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(*healthy, dataset.spectrum(0));
}

TEST(PageFileTest, HookDamageOnVerifiedNodePageFailsSearch) {
  PageFile file;
  rstar::TreeOptions options;
  options.capacity_override = 4;
  rstar::RStarTree tree(&file, 2, options);
  Rng rng(31);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const double x = rng.Uniform(-100.0, 100.0);
    const double y = rng.Uniform(-100.0, 100.0);
    ASSERT_TRUE(tree.Insert(rstar::Rect::FromPoint({x, y}), i).ok());
  }
  const rstar::Rect everything({-200.0, -200.0}, {200.0, 200.0});
  std::vector<rstar::Entry> results;
  ASSERT_TRUE(tree.WindowQuery(everything, &results).ok());  // verifies
  ASSERT_EQ(results.size(), 50u);
  for (const auto& faults : DamagingFaults()) {
    tsq::testing::FaultPolicy policy(faults);
    file.SetFaultHook(&policy);
    results.clear();
    EXPECT_EQ(tree.WindowQuery(everything, &results).code(),
              StatusCode::kCorruption)
        << policy.Describe();
    file.SetFaultHook(nullptr);
    EXPECT_EQ(policy.faults_injected(), 1u);
  }
  results.clear();
  ASSERT_TRUE(tree.WindowQuery(everything, &results).ok());
  EXPECT_EQ(results.size(), 50u);
}

TEST(PageFileTest, CorruptForTestingValidatesArguments) {
  PageFile file;
  EXPECT_EQ(file.CorruptForTesting(0, 0).code(), StatusCode::kOutOfRange);
  const PageId id = file.Allocate();
  EXPECT_EQ(file.CorruptForTesting(id, kPageSize).code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace tsq::storage
