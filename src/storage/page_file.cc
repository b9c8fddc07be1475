#include "storage/page_file.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

#include "obs/metrics.h"
#include "storage/atomic_file.h"

namespace tsq::storage {

namespace {

std::string PageIdMessage(const char* what, PageId id, std::size_t count) {
  std::ostringstream msg;
  msg << what << ": page " << id << " (file has " << count << " pages)";
  return msg.str();
}

// Process-wide counters summed over every PageFile; the per-instance atomics
// remain the benchmark-facing numbers (they are resettable per epoch), the
// global ones feed MetricsRegistry::RenderText/Json. Only successful I/Os
// count, matching the per-instance counters.
struct PageFileMetrics {
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* allocations;
  obs::Counter* verifications;

  static const PageFileMetrics& Get() {
    static const PageFileMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return PageFileMetrics{
          registry.counter("storage.page_file.reads"),
          registry.counter("storage.page_file.writes"),
          registry.counter("storage.page_file.allocations"),
          registry.counter("storage.page_file.verifications")};
    }();
    return metrics;
  }
};

}  // namespace

std::uint64_t PageFile::Checksum(const Page& page) {
  // FNV-1a over 64-bit words (the page size is a multiple of 8): one mix per
  // 8 bytes keeps the per-read verification cost well under a microsecond.
  static_assert(kPageSize % sizeof(std::uint64_t) == 0);
  std::uint64_t hash = 0xCBF29CE484222325ull;
  const std::uint8_t* data = page.bytes.data();
  for (std::size_t i = 0; i < kPageSize; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, data + i, sizeof word);
    hash ^= word;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::unique_ptr<PageFile::Chunk> PageFile::NewChunk() {
  auto chunk = std::make_unique<Chunk>();
  chunk->pages.reset(static_cast<Page*>(std::calloc(kChunkPages, kPageSize)));
  if (chunk->pages == nullptr) throw std::bad_alloc();
  return chunk;
}

PageId PageFile::Allocate() {
  static const std::uint64_t kZeroPageChecksum = Checksum(Page{});
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t id = page_count_.load(std::memory_order_relaxed);
  if (id == chunks_.size() * kChunkPages) {
    chunks_.push_back(NewChunk());
  }
  // Only Clear and LoadFrom take pages away, and both drop their chunks, so
  // a slot past the end is still the zeroes its chunk was created with.
  VerifiedFlag(static_cast<PageId>(id)).store(false, std::memory_order_relaxed);
  checksums_.push_back(kZeroPageChecksum);
  page_count_.store(id + 1, std::memory_order_release);
  allocations_.fetch_add(1, std::memory_order_relaxed);
  PageFileMetrics::Get().allocations->Increment();
  return static_cast<PageId>(id);
}

void PageFile::SimulateLatency(std::uint64_t extra_nanos) const {
  const std::uint64_t delay = read_delay_nanos() + extra_nanos;
  if (delay == 0) return;
  // Spin outside the lock: concurrent readers pay their simulated latencies
  // in parallel, like requests in flight on independent disks.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(delay);
  while (std::chrono::steady_clock::now() < until) {
    // Models the fixed per-page cost of a (cached-era) disk access.
  }
}

Status PageFile::VerifyOnceLocked(PageId id) {
  std::atomic<bool>& verified = VerifiedFlag(id);
  if (verified.load(std::memory_order_relaxed)) return Status::Ok();
  PageFileMetrics::Get().verifications->Increment();
  if (Checksum(PageAt(id)) != checksums_[id]) {
    return Status::Corruption(
        PageIdMessage("checksum mismatch", id, page_count()));
  }
  // Release pairs with View's acquire load: a reader that sees the flag set
  // also sees the bytes it was computed over.
  verified.store(true, std::memory_order_release);
  return Status::Ok();
}

void PageFile::CountRead() {
  reads_.fetch_add(1, std::memory_order_relaxed);
  PageFileMetrics::Get().reads->Increment();
}

Status PageFile::ReadThroughHook(PageId id, FaultHook* hook, Page* out) {
  const FaultDecision fault = hook->OnRead(id);
  SimulateLatency(fault.delay_nanos);
  if (fault.action == FaultDecision::Action::kFail) {
    // Failed I/Os are never counted; the hook's status stands in for the
    // device error verbatim.
    return fault.status.ok()
               ? Status::IoError(PageIdMessage("injected fault", id, 0))
               : fault.status;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t count = page_count();
  if (id >= count) return Status::OutOfRange(PageIdMessage("read", id, count));
  // Faults mutate the page *as delivered*, not the stored copy, and then go
  // through the real checksum whatever the verified flag says: corruption
  // and torn reads are caught by the same machinery a real mismatch hits.
  *out = PageAt(id);
  if (fault.action == FaultDecision::Action::kCorruptBytes) {
    out->bytes[fault.byte_offset % kPageSize] ^= 0xFF;
  } else if (fault.action == FaultDecision::Action::kShortRead &&
             fault.valid_bytes < kPageSize) {
    std::fill(out->bytes.begin() + fault.valid_bytes, out->bytes.end(),
              std::uint8_t{0});
  }
  PageFileMetrics::Get().verifications->Increment();
  if (Checksum(*out) != checksums_[id]) {
    return Status::Corruption(PageIdMessage("checksum mismatch", id, count));
  }
  return Status::Ok();
}

Status PageFile::Read(PageId id, Page* out) {
  if (FaultHook* hook = fault_hook_.load(std::memory_order_acquire)) {
    TSQ_RETURN_IF_ERROR(ReadThroughHook(id, hook, out));
    CountRead();
    return Status::Ok();
  }
  SimulateLatency(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t count = page_count();
    if (id >= count) {
      return Status::OutOfRange(PageIdMessage("read", id, count));
    }
    TSQ_RETURN_IF_ERROR(VerifyOnceLocked(id));
    *out = PageAt(id);
  }
  CountRead();
  return Status::Ok();
}

Result<const Page*> PageFile::View(PageId id, PageScratch* scratch) {
  if (FaultHook* hook = fault_hook_.load(std::memory_order_acquire)) {
    Page* delivered = scratch->has_value() ? &**scratch : &scratch->emplace();
    TSQ_RETURN_IF_ERROR(ReadThroughHook(id, hook, delivered));
    CountRead();
    return delivered;
  }
  SimulateLatency(0);
  const std::size_t count = page_count();
  if (id >= count) return Status::OutOfRange(PageIdMessage("read", id, count));
  if (!VerifiedFlag(id).load(std::memory_order_acquire)) {
    // First read since the last mutation. The lock makes concurrent first
    // readers of one page compute its checksum once between them.
    std::lock_guard<std::mutex> lock(mu_);
    TSQ_RETURN_IF_ERROR(VerifyOnceLocked(id));
  }
  CountRead();
  return &PageAt(id);
}

Status PageFile::Write(PageId id, const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t count = page_count();
  if (id >= count) {
    return Status::OutOfRange(PageIdMessage("write", id, count));
  }
  PageAt(id) = page;
  checksums_[id] = Checksum(page);
  VerifiedFlag(id).store(false, std::memory_order_relaxed);
  writes_.fetch_add(1, std::memory_order_relaxed);
  PageFileMetrics::Get().writes->Increment();
  return Status::Ok();
}

void PageFile::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  chunks_.clear();
  checksums_.clear();
  page_count_.store(0, std::memory_order_release);
}

namespace {
// Format v1 ("TSQPAG") stored raw pages only; LoadFrom recomputed checksums
// from whatever bytes it read, so on-disk corruption round-tripped as valid.
// v2 ("TSQPG2") persists the per-page checksums so loads verify against the
// values computed when the pages were written.
constexpr std::uint64_t kPageFileMagicV1 = 0x545351504147u;     // "TSQPAG"
constexpr std::uint64_t kPageFileMagicV2 = 0x325347505153u;     // "TSQPG2"
}  // namespace

Status PageFile::SaveTo(const std::string& path, FaultHook* hook,
                        FileDigest* digest) const {
  // Write-to-temp + rename: a crash or error anywhere in here leaves the
  // previous complete file at `path` untouched (the old SaveTo opened the
  // destination with std::ios::trunc, so a torn save destroyed the last
  // good checkpoint before the new one existed).
  AtomicFile out(path, hook);
  TSQ_RETURN_IF_ERROR(out.Open());
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t count = page_count();
  TSQ_RETURN_IF_ERROR(out.Append(&kPageFileMagicV2, sizeof kPageFileMagicV2));
  TSQ_RETURN_IF_ERROR(out.Append(&count, sizeof count));
  if (!checksums_.empty()) {
    TSQ_RETURN_IF_ERROR(out.Append(checksums_.data(),
                                   checksums_.size() * sizeof(std::uint64_t)));
  }
  // Pages go out one storage chunk per Append: each is one crash point for
  // the write-fault sweep, so big files do not blow up the number of
  // injection steps while small files still get a mid-body torn state.
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const std::size_t pages = std::min<std::size_t>(
        kChunkPages, count - c * kChunkPages);
    TSQ_RETURN_IF_ERROR(
        out.Append(chunks_[c]->pages.get(), pages * kPageSize));
  }
  TSQ_RETURN_IF_ERROR(out.Commit());
  if (digest != nullptr) *digest = out.digest();
  return Status::Ok();
}

Status PageFile::LoadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  std::uint64_t magic = 0;
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in || (magic != kPageFileMagicV2 && magic != kPageFileMagicV1)) {
    return Status::Corruption("not a tsq page file: " + path);
  }
  if (magic == kPageFileMagicV1) {
    return Status::Corruption(
        "unsupported page file format v1 (no persisted checksums): " + path);
  }
  // Bound the header's page count against the actual file size *before*
  // allocating anything: a corrupted count would otherwise request exabytes
  // and die on bad_alloc instead of reporting Corruption. Exact-size match
  // also rejects trailing garbage.
  const std::uint64_t header = sizeof magic + sizeof count;
  if (count > (file_size - std::min(file_size, header)) /
                  (sizeof(std::uint64_t) + kPageSize) ||
      file_size != header + count * (sizeof(std::uint64_t) + kPageSize)) {
    return Status::Corruption("page count inconsistent with file size: " +
                              path);
  }
  std::vector<std::uint64_t> checksums(count);
  for (std::uint64_t& checksum : checksums) {
    in.read(reinterpret_cast<char*>(&checksum), sizeof checksum);
    if (!in) return Status::Corruption("truncated page file: " + path);
  }
  std::vector<std::unique_ptr<Chunk>> chunks((count + kChunkPages - 1) /
                                             kChunkPages);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i % kChunkPages == 0) {
      chunks[i / kChunkPages] = NewChunk();
    }
    Chunk& chunk = *chunks[i / kChunkPages];
    Page& page = chunk.pages[i % kChunkPages];
    in.read(reinterpret_cast<char*>(page.bytes.data()), kPageSize);
    if (!in) return Status::Corruption("truncated page file: " + path);
    // Verify against the *persisted* checksums before committing anything:
    // bytes corrupted at rest no longer re-bless themselves on load. A page
    // that passes needs no second check on its first read.
    if (Checksum(page) != checksums[i]) {
      return Status::Corruption(
          PageIdMessage("checksum mismatch on load", static_cast<PageId>(i),
                        count) +
          " in " + path);
    }
    chunk.verified[i % kChunkPages].store(true, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  chunks_ = std::move(chunks);
  checksums_ = std::move(checksums);
  page_count_.store(count, std::memory_order_release);
  ResetStats();
  return Status::Ok();
}

Status PageFile::CorruptForTesting(PageId id, std::size_t byte_offset) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t count = page_count();
  if (id >= count) {
    return Status::OutOfRange(PageIdMessage("corrupt", id, count));
  }
  if (byte_offset >= kPageSize) {
    return Status::OutOfRange("corrupt: byte offset beyond page");
  }
  PageAt(id).bytes[byte_offset] ^= 0xFF;
  VerifiedFlag(id).store(false, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace tsq::storage
