#include "storage/record_store.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace tsq::storage {

RecordStore::RecordStore(PageFile* file) : file_(file) {
  TSQ_CHECK(file != nullptr);
}

Result<RecordId> RecordStore::Append(std::span<const std::uint8_t> payload) {
  // Start a fresh page when there is no room for even the header plus one
  // payload byte (or for the header of an empty record).
  const std::uint32_t min_space =
      kHeaderSize + (payload.empty() ? 0u : 1u);
  if (current_page_ == kInvalidPageId || cursor_ + min_space > kPageSize) {
    current_page_ = file_->Allocate();
    cursor_ = 0;
  }

  const RecordId id{current_page_, cursor_};
  Page page;
  TSQ_RETURN_IF_ERROR(file_->Read(current_page_, &page));

  const std::uint32_t total = static_cast<std::uint32_t>(payload.size());
  std::memcpy(page.bytes.data() + cursor_, &total, kHeaderSize);
  cursor_ += kHeaderSize;

  std::size_t written = 0;
  while (true) {
    const std::size_t space = kPageSize - cursor_;
    const std::size_t chunk = std::min(space, payload.size() - written);
    std::memcpy(page.bytes.data() + cursor_, payload.data() + written, chunk);
    written += chunk;
    cursor_ += static_cast<std::uint32_t>(chunk);
    TSQ_RETURN_IF_ERROR(file_->Write(current_page_, page));
    if (written == payload.size()) break;
    // Continue on a fresh page; freshly allocated pages are consecutive, so
    // Get can follow the record by incrementing the page id.
    const PageId next = file_->Allocate();
    TSQ_CHECK_EQ(next, current_page_ + 1);
    current_page_ = next;
    cursor_ = 0;
    TSQ_RETURN_IF_ERROR(file_->Read(current_page_, &page));
  }
  ++record_count_;
  return id;
}

Result<std::uint32_t> RecordStore::ViewHeader(
    RecordId id, PageScratch* scratch, const Page** page,
    std::uint64_t* pages_read) const {
  const Result<const Page*> view = file_->View(id.page, scratch);
  TSQ_RETURN_IF_ERROR(view.status());
  if (pages_read != nullptr) ++*pages_read;
  if (id.offset > kPageSize - kHeaderSize) {
    return Status::OutOfRange("record offset beyond page");
  }
  std::uint32_t length = 0;
  std::memcpy(&length, (*view)->bytes.data() + id.offset, kHeaderSize);
  // The header is trusted with an allocation only once it fits the file: a
  // corrupted length claiming gigabytes is Corruption, not a giant
  // zero-filled buffer.
  const std::uint64_t payload_start =
      std::uint64_t{id.page} * kPageSize + id.offset + kHeaderSize;
  const std::uint64_t file_bytes =
      static_cast<std::uint64_t>(file_->page_count()) * kPageSize;
  if (length > file_bytes - payload_start) {
    return Status::Corruption("record length runs past the end of the file");
  }
  *page = *view;
  return length;
}

Status RecordStore::CopyPayload(PageId page_id, std::size_t cursor,
                                const Page* page, std::size_t length,
                                std::uint8_t* out, PageScratch* scratch,
                                std::uint64_t* pages_read) const {
  for (std::size_t copied = 0; copied < length;) {
    if (cursor == kPageSize) {
      // Records continue on the next (consecutively allocated) page.
      ++page_id;
      cursor = 0;
      page = nullptr;
    }
    if (page == nullptr) {
      const Result<const Page*> view = file_->View(page_id, scratch);
      TSQ_RETURN_IF_ERROR(view.status());
      if (pages_read != nullptr) ++*pages_read;
      page = *view;
    }
    const std::size_t chunk = std::min(kPageSize - cursor, length - copied);
    std::memcpy(out + copied, page->bytes.data() + cursor, chunk);
    copied += chunk;
    cursor += chunk;
  }
  return Status::Ok();
}

Result<std::vector<std::uint8_t>> RecordStore::Get(
    RecordId id, std::uint64_t* pages_read) const {
  std::vector<std::uint8_t> payload;
  TSQ_RETURN_IF_ERROR(ReadRecord(
      id,
      [&payload](std::size_t length) -> Result<std::uint8_t*> {
        payload.resize(length);
        return payload.data();
      },
      pages_read));
  return payload;
}

Result<std::vector<std::uint8_t>> RecordStore::GetRange(
    RecordId id, std::size_t byte_offset, std::size_t length) const {
  PageScratch scratch;
  const Page* header_page = nullptr;
  const Result<std::uint32_t> total =
      ViewHeader(id, &scratch, &header_page, nullptr);
  TSQ_RETURN_IF_ERROR(total.status());
  if (byte_offset + length > *total) {
    return Status::OutOfRange("range exceeds record payload");
  }
  // Payload layout: the first fragment fills the header page, the rest
  // continues on consecutive pages from byte 0, so only the pages the range
  // spans are read.
  const std::size_t first_fragment = kPageSize - (id.offset + kHeaderSize);
  std::vector<std::uint8_t> out(length);
  if (byte_offset < first_fragment) {
    TSQ_RETURN_IF_ERROR(CopyPayload(id.page,
                                    id.offset + kHeaderSize + byte_offset,
                                    header_page, length, out.data(), &scratch,
                                    nullptr));
  } else {
    const std::size_t rest = byte_offset - first_fragment;
    TSQ_RETURN_IF_ERROR(
        CopyPayload(id.page + 1 + static_cast<PageId>(rest / kPageSize),
                    rest % kPageSize, nullptr, length, out.data(), &scratch,
                    nullptr));
  }
  return out;
}

Result<ts::Series> RecordStore::GetSeriesRange(RecordId id, std::size_t first,
                                               std::size_t count) const {
  Result<std::vector<std::uint8_t>> bytes =
      GetRange(id, first * sizeof(double), count * sizeof(double));
  if (!bytes.ok()) return bytes.status();
  ts::Series series(count);
  std::memcpy(series.data(), bytes->data(), bytes->size());
  return series;
}

Result<RecordId> RecordStore::AppendSeries(const ts::Series& series) {
  std::vector<std::uint8_t> payload(series.size() * sizeof(double));
  std::memcpy(payload.data(), series.data(), payload.size());
  return Append(payload);
}

Result<ts::Series> RecordStore::GetSeries(RecordId id,
                                          std::uint64_t* pages_read) const {
  ts::Series series;
  TSQ_RETURN_IF_ERROR(ReadRecord(
      id,
      [&series](std::size_t length) -> Result<std::uint8_t*> {
        if (length % sizeof(double) != 0) {
          return Status::Corruption("record size is not a multiple of 8");
        }
        series.resize(length / sizeof(double));
        return reinterpret_cast<std::uint8_t*>(series.data());
      },
      pages_read));
  return series;
}

}  // namespace tsq::storage
