#ifndef TSQ_STORAGE_PAGE_FILE_H_
#define TSQ_STORAGE_PAGE_FILE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/atomic_file.h"
#include "storage/fault_injection.h"

namespace tsq::storage {

/// Fixed page size; sized like a classic database page so that R*-tree node
/// fan-outs and record-per-page counts are realistic.
inline constexpr std::size_t kPageSize = 4096;

using PageId = std::uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFF;

/// One disk page.
struct Page {
  std::array<std::uint8_t, kPageSize> bytes{};
};
static_assert(sizeof(Page) == kPageSize);

/// Counters exposed by the page file. The paper's experiments report "number
/// of disk accesses"; `reads` is that number for whatever structure lives in
/// this file.
///
/// Counting convention: only *successful* I/Os are counted, everywhere. A
/// Read that fails (OutOfRange or Corruption) and a Write that fails
/// (OutOfRange) leave the counters untouched, so `reads`/`writes` equal the
/// number of pages actually served/stored.
struct IoStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t allocations = 0;
};

/// Caller-owned landing space for PageFile::View. It holds a page only once
/// a fault hook is installed and a read has to be delivered as a copy, so
/// the hook-free path never touches (or zeroes) 4 KiB per read.
using PageScratch = std::optional<Page>;

/// An in-memory simulation of a paged disk file.
///
/// Every Read/Write is counted, which makes index traversals and record
/// fetches measurable in the same unit the paper uses (page accesses),
/// independent of the host machine. Each page carries a checksum maintained
/// on write and verified on read, so corruption (or the failure-injection
/// test hook) is detected rather than silently propagated.
///
/// Verify once per mutation: each page also carries an atomic "verified"
/// flag. Allocate, Write, Clear and CorruptForTesting clear it; LoadFrom
/// sets it (it has just checked every page against the persisted
/// checksums); the first read after a mutation runs the real checksum and
/// sets it, so later reads of an unchanged page skip the checksum. The
/// `storage.page_file.verifications` counter counts the read-side checksums.
///
/// Storage: pages live in fixed-size chunks that never move, so a pointer
/// to a page stays valid while the file grows (and a growing file never
/// holds two copies of itself, as a doubling vector would).
///
/// Thread safety: Read, Write, Allocate and the counters may be called
/// concurrently — page content is guarded by a mutex and the counters are
/// atomic. View takes no file-wide mutex on its hot path; its caller must
/// keep Allocate, Write, Clear and LoadFrom off the file while it reads or
/// holds a view (the engine's snapshot read pin does exactly that). The
/// simulated read-delay spin happens on the calling thread *outside* the
/// lock, so N concurrent readers pay their latencies in parallel (the model
/// of N independent disks the parallel executor assumes). SaveTo/LoadFrom
/// still require external exclusion from writers.
class PageFile {
 public:
  PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Allocates a zeroed page and returns its id.
  PageId Allocate();

  /// Simulates storage latency: every Read spins for `nanos` nanoseconds on
  /// the calling thread (concurrent readers spin independently). Benchmarks
  /// use this to reproduce the paper's cost ratio between a disk access and
  /// a sequence comparison (C_cmp = 0.4 * C_DA on their 1999 hardware);
  /// 0 (the default) disables the delay.
  void set_read_delay_nanos(std::uint64_t nanos) {
    read_delay_nanos_.store(nanos, std::memory_order_relaxed);
  }
  std::uint64_t read_delay_nanos() const {
    return read_delay_nanos_.load(std::memory_order_relaxed);
  }

  /// Number of allocated pages.
  std::size_t page_count() const {
    return page_count_.load(std::memory_order_acquire);
  }

  /// Reads page `id` into `*out`: the locked copy, safe against concurrent
  /// writers (the buffer pool's miss path and RecordStore::Append use it).
  /// Fails with OutOfRange for an unknown id and Corruption when the stored
  /// checksum does not match the page content.
  Status Read(PageId id, Page* out);

  /// Zero-copy read for query-side readers: returns a view of page `id`,
  /// verified and counted exactly like Read. Without a fault hook the view
  /// points at the stored page and no file-wide mutex is taken once the
  /// page is verified. The pointer stays valid until Clear or LoadFrom
  /// (chunks never move, so Allocate does not invalidate it), but the caller
  /// must keep Allocate, Write, Clear and LoadFrom off this file while it
  /// calls View or reads a view. With a fault hook installed the page is
  /// delivered the way Read delivers it (hook, mutated copy, real checksum)
  /// into `*scratch`, and the view points there, valid until `*scratch` is
  /// reused.
  Result<const Page*> View(PageId id, PageScratch* scratch);

  /// Writes `page` to `id` and updates its checksum.
  Status Write(PageId id, const Page& page);

  /// Snapshot of the counters (each counter is read atomically; the snapshot
  /// as a whole is not a consistent cut under concurrent I/O).
  IoStats stats() const {
    IoStats out;
    out.reads = reads_.load(std::memory_order_relaxed);
    out.writes = writes_.load(std::memory_order_relaxed);
    out.allocations = allocations_.load(std::memory_order_relaxed);
    return out;
  }
  void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    allocations_.store(0, std::memory_order_relaxed);
  }

  /// Drops every page (ids restart from 0). Counters are left alone — reset
  /// them separately if the rebuild's I/O should not be charged to anyone.
  /// Requires external exclusion from every concurrent reader and writer
  /// (the engine calls this only under its write lock); any BufferPool
  /// caching this file must be Clear()ed too, since page ids are reused.
  void Clear();

  /// Test hook: flips a byte in the stored page without updating the
  /// checksum (and clears its verified flag), so the next Read or View
  /// reports corruption.
  Status CorruptForTesting(PageId id, std::size_t byte_offset);

  /// Installs (or, with nullptr, removes) a fault-injection hook consulted
  /// at the top of every Read and View. kFail decisions return the hook's
  /// status without counting the read; kCorruptBytes/kShortRead mutate the
  /// page as delivered and let the real checksum detect the damage, so the
  /// stored copy stays intact. While a hook is installed every read is
  /// delivered as a copy and checksummed, verified flag or not. The caller
  /// must keep the hook alive until it is uninstalled and in-flight reads
  /// have drained.
  void SetFaultHook(FaultHook* hook) {
    fault_hook_.store(hook, std::memory_order_release);
  }

  /// Writes every page to `path` (format v2, binary: magic, page count, the
  /// per-page checksums, then the raw pages). Persisting the checksums is
  /// what lets LoadFrom detect bytes corrupted at rest.
  ///
  /// The write is atomic: content goes to `<path>.tmp` and is fsynced
  /// before being renamed into place (storage::AtomicFile), so a crash or
  /// error mid-save leaves the previous complete file at `path` untouched.
  /// `hook`, when non-null, has its OnWrite consulted at every step — the
  /// crash-recovery harness's injection point. `digest`, when non-null,
  /// receives the written file's size and hash (the checkpoint manifest
  /// entry).
  Status SaveTo(const std::string& path, FaultHook* hook = nullptr,
                FileDigest* digest = nullptr) const;

  /// Replaces this file's contents with the pages stored at `path` after
  /// verifying every page against its *persisted* checksum (counters reset;
  /// every page starts out verified).
  /// Returns Corruption — without modifying this file — when a checksum does
  /// not match, when the file is truncated or its header page count is
  /// inconsistent with its size (validated before any allocation, so a
  /// corrupted count can never trigger bad_alloc), or for the legacy v1
  /// format (which carried no checksums and cannot be verified).
  Status LoadFrom(const std::string& path);

 private:
  /// Pages per storage chunk (1 MiB of page bytes).
  static constexpr std::size_t kChunkPages = 256;
  struct Chunk {
    // The pages come from calloc: zero without being written, so the
    // unallocated tail of a file's last chunk costs no resident memory.
    struct Free {
      void operator()(Page* pages) const { std::free(pages); }
    };
    std::unique_ptr<Page[], Free> pages;
    std::array<std::atomic<bool>, kChunkPages> verified{};
  };
  static std::unique_ptr<Chunk> NewChunk();

  static std::uint64_t Checksum(const Page& page);

  Page& PageAt(PageId id) {
    return chunks_[id / kChunkPages]->pages[id % kChunkPages];
  }
  std::atomic<bool>& VerifiedFlag(PageId id) {
    return chunks_[id / kChunkPages]->verified[id % kChunkPages];
  }
  // Spins for the configured read delay plus `extra_nanos`.
  void SimulateLatency(std::uint64_t extra_nanos) const;
  // Checksums page `id` unless its verified flag is set; sets the flag on a
  // match. Requires mu_ and a valid id.
  Status VerifyOnceLocked(PageId id);
  // The read under a fault hook: consult the hook, copy the stored page
  // into `*out`, apply the injected damage, verify with the real checksum.
  Status ReadThroughHook(PageId id, FaultHook* hook, Page* out);
  // Charges one successful read to the counters.
  void CountRead();

  mutable std::mutex mu_;  // guards chunk growth, page bytes and checksums_
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint64_t> checksums_;
  std::atomic<std::size_t> page_count_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::uint64_t> read_delay_nanos_{0};
  std::atomic<FaultHook*> fault_hook_{nullptr};
};

}  // namespace tsq::storage

#endif  // TSQ_STORAGE_PAGE_FILE_H_
