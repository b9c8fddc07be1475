#ifndef TSQ_STORAGE_RECORD_STORE_H_
#define TSQ_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/page_file.h"
#include "ts/series.h"

namespace tsq::storage {

/// Locates a stored record: the page it starts on and the byte offset of its
/// header within that page.
struct RecordId {
  PageId page = kInvalidPageId;
  std::uint32_t offset = 0;

  bool operator==(const RecordId&) const = default;
};

/// Append-only store of variable-length records packed into pages.
///
/// This is the "full database record" storage of the paper's Query 1: the
/// post-processing step fetches each candidate's complete sequence from here,
/// and every page touched counts as a disk access — the second term of the
/// cost model (Eq. 18).
///
/// Layout: records are appended into the current page as
/// [u32 total_length][payload fragment]; a record that does not fit continues
/// on freshly allocated (hence consecutive) pages until exhausted. A page's
/// trailing free space smaller than a header starts a new page.
class RecordStore {
 public:
  /// The store allocates pages from (and counts reads against) `file`, which
  /// it does not own. The file must be used exclusively by this store.
  explicit RecordStore(PageFile* file);

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// Appends a record; returns its id.
  Result<RecordId> Append(std::span<const std::uint8_t> payload);

  /// The one decode routine: copies record `id`'s payload into a caller
  /// buffer, viewing (and counting) every page it spans through
  /// PageFile::View, so the same queries-pin-writes-lock contract applies.
  /// The header's length is first bounded by the bytes the file holds past
  /// the header (Corruption otherwise), then handed to `sink(length)`, which
  /// returns a `Result<std::uint8_t*>`: where to put that many bytes, or an
  /// error rejecting the length — so nothing is allocated or copied for a
  /// length the caller cannot accept. When `pages_read` is non-null it is
  /// *incremented* by the number of page reads this call issued — the
  /// per-task accounting the parallel query executor uses instead of
  /// diffing the file's global counter.
  template <typename Sink>
  Status ReadRecord(RecordId id, Sink&& sink,
                    std::uint64_t* pages_read = nullptr) const {
    PageScratch scratch;
    const Page* page = nullptr;
    const Result<std::uint32_t> length =
        ViewHeader(id, &scratch, &page, pages_read);
    TSQ_RETURN_IF_ERROR(length.status());
    const Result<std::uint8_t*> dest = sink(std::size_t{*length});
    TSQ_RETURN_IF_ERROR(dest.status());
    return CopyPayload(id.page, id.offset + kHeaderSize, page, *length, *dest,
                       &scratch, pages_read);
  }

  /// Fetches a record by id into a fresh buffer (see ReadRecord).
  Result<std::vector<std::uint8_t>> Get(RecordId id,
                                        std::uint64_t* pages_read =
                                            nullptr) const;

  /// Fetches `length` payload bytes starting at `byte_offset` within the
  /// record, reading (and counting) only the pages that range spans plus the
  /// header page. OutOfRange when the range exceeds the record.
  Result<std::vector<std::uint8_t>> GetRange(RecordId id,
                                             std::size_t byte_offset,
                                             std::size_t length) const;

  /// Typed range fetch: `count` doubles starting at value index `first`.
  Result<ts::Series> GetSeriesRange(RecordId id, std::size_t first,
                                    std::size_t count) const;

  /// Convenience: stores a time series as a record of doubles.
  Result<RecordId> AppendSeries(const ts::Series& series);

  /// Convenience: fetches a record and decodes it as a series of doubles.
  /// `pages_read`, when non-null, is incremented per page read (see Get).
  Result<ts::Series> GetSeries(RecordId id,
                               std::uint64_t* pages_read = nullptr) const;

  std::size_t record_count() const { return record_count_; }

  /// Persistence hooks: the append cursor to save alongside the page file,
  /// and its restoration after PageFile::LoadFrom.
  PageId current_page() const { return current_page_; }
  std::uint32_t cursor() const { return cursor_; }
  void RestoreForLoad(PageId current_page, std::uint32_t cursor,
                      std::size_t record_count) {
    current_page_ = current_page;
    cursor_ = cursor;
    record_count_ = record_count;
  }

 private:
  static constexpr std::uint32_t kHeaderSize = sizeof(std::uint32_t);

  // Views the page holding record `id`'s header (into `*page`, counted) and
  // returns the payload length the header declares, bounded by the bytes
  // the file holds past the header.
  Result<std::uint32_t> ViewHeader(RecordId id, PageScratch* scratch,
                                   const Page** page,
                                   std::uint64_t* pages_read) const;
  // Copies `length` payload bytes that start at byte `cursor` of page
  // `page_id` and continue from byte 0 of the following pages. `page` is a
  // view of `page_id` already in hand, or nullptr to view it first.
  Status CopyPayload(PageId page_id, std::size_t cursor, const Page* page,
                     std::size_t length, std::uint8_t* out,
                     PageScratch* scratch, std::uint64_t* pages_read) const;

  PageFile* file_;
  PageId current_page_ = kInvalidPageId;
  std::uint32_t cursor_ = 0;  // next free byte within current_page_
  std::size_t record_count_ = 0;
};

}  // namespace tsq::storage

#endif  // TSQ_STORAGE_RECORD_STORE_H_
