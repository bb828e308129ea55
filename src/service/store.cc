#include "service/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "support/error.h"
#include "support/faultio.h"
#include "support/str.h"

namespace fs = std::filesystem;

namespace srra::service {

namespace {

// INDEX snapshot cadence: often enough that a kill -9 costs at most this
// many journal records of replay at the next open, rare enough that the
// snapshot write is noise against the entry writes it rides along with.
constexpr std::int64_t kSnapshotEvery = 256;

bool valid_key(const std::string& key) {
  return key.size() == 16 &&
         key.find_first_not_of("0123456789abcdef") == std::string::npos;
}

// Reads a whole file through the fault-injection shim; nullopt on any I/O
// problem. Short reads append and continue; EINTR retries; anything else
// (including an injected EAGAIN/EIO) degrades to a miss.
std::optional<std::string> slurp(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string text;
  char chunk[65536];
  for (;;) {
    const ssize_t n = faultio::read(faultio::Site::kStoreRead, fd, chunk, sizeof chunk);
    if (n > 0) {
      text.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    ::close(fd);
    return std::nullopt;
  }
  ::close(fd);
  return text;
}

// Writes [data, data+size) to fd through the shim at `site`, riding out
// EINTR and short writes. False on any other failure (ENOSPC, EIO, ...).
bool write_all(faultio::Site site, int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = faultio::write(site, fd, data + off, size - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

// Crash-safe write: temp file in the same directory, then rename into
// place (atomic within one filesystem). Returns false on any I/O failure,
// leaving errno describing it and no temp debris behind. The named crash
// points cover every state a power cut could freeze: empty tmp, torn tmp,
// unsynced tmp, un-renamed tmp, renamed-but-unjournaled entry — the torture
// suite (test_fault.cc) relaunches from each and proves recovery.
bool write_then_rename(const fs::path& path, const std::string& bytes, bool durable) {
  const std::string tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  faultio::crash_point("store.write.open");

  const auto give_up = [&](int why) {
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = why;
    return false;
  };

  const std::size_t half = bytes.size() / 2;
  if (!write_all(faultio::Site::kStoreWrite, fd, bytes.data(), half)) {
    return give_up(errno);
  }
  faultio::crash_point("store.write.partial");
  if (!write_all(faultio::Site::kStoreWrite, fd, bytes.data() + half,
                 bytes.size() - half)) {
    return give_up(errno);
  }
  faultio::crash_point("store.write.sync");
  if (durable && faultio::fsync(faultio::Site::kStoreFlush, fd) != 0) {
    return give_up(errno);
  }
  if (::close(fd) != 0) {
    const int why = errno;
    ::unlink(tmp.c_str());
    errno = why;
    return false;
  }
  faultio::crash_point("store.write.rename");
  if (faultio::rename(faultio::Site::kStoreRename, tmp.c_str(), path.c_str()) != 0) {
    // Keep the rename's errno as the diagnostic; the cleanup must not
    // clobber it (a failed remove of the tmp file is best-effort anyway).
    const int why = errno;
    ::unlink(tmp.c_str());
    errno = why;
    return false;
  }
  faultio::crash_point("store.write.publish");
  if (durable) {
    // The rename is only durable once the *directory* entry is on disk.
    const int dir_fd = ::open(path.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd < 0) return false;
    const int rc = faultio::fsync(faultio::Site::kStoreFlush, dir_fd);
    const int why = errno;
    ::close(dir_fd);
    if (rc != 0) {
      errno = why;
      return false;
    }
  }
  return true;
}

}  // namespace

// The cross-process mutation lease: flock(LOCK_EX) on <dir>/LOCK for the
// duration of one put / eviction / drop / snapshot. flock is per open file
// description, so two ResultStore instances in one process exclude each
// other too, and the kernel releases the lease when a holder crashes.
// Taking the lease replays the journal suffix first, so every mutation
// starts from the globally latest index state.
class StoreLease {
 public:
  explicit StoreLease(ResultStore& store) : store_(store) {
    if (store_.lock_fd_ >= 0) {
      while (::flock(store_.lock_fd_, LOCK_EX) != 0) {
        if (errno != EINTR) return;
      }
      held_ = true;
    }
    store_.replay_journal();
  }
  ~StoreLease() {
    if (held_) ::flock(store_.lock_fd_, LOCK_UN);
  }
  StoreLease(const StoreLease&) = delete;
  StoreLease& operator=(const StoreLease&) = delete;

 private:
  ResultStore& store_;
  bool held_ = false;
};

ResultStore::ResultStore(std::string dir, std::int64_t max_entries)
    : ResultStore(std::move(dir), StoreOptions{max_entries, false}) {}

ResultStore::ResultStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  check(options_.max_entries >= 1, [&] {
    return cat("ResultStore: max_entries must be >= 1 (got ", options_.max_entries, ")");
  });
  if (dir_.empty()) return;

  std::error_code ec;
  fs::create_directories(dir_, ec);
  check(!ec, [&] { return cat("cannot create store directory '", dir_, "': ", ec.message()); });

  // Version stamp: a store written by a different format version is cleared
  // — stale payload shapes (and the index/journal describing them) must
  // degrade to cold misses, not be served.
  const fs::path format_path = fs::path(dir_) / "FORMAT";
  const std::optional<std::string> stamp = slurp(format_path);
  const std::string want = cat(kStoreFormat, "\n");
  if (stamp.has_value() && *stamp != want) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
      if (entry.path().extension() == ".entry") fs::remove(entry.path(), ec);
    }
    fs::remove(fs::path(dir_) / "INDEX", ec);
    fs::remove(fs::path(dir_) / "JOURNAL", ec);
  }
  if (!stamp.has_value() || *stamp != want) {
    if (!write_then_rename(format_path, want, options_.fsync)) {
      // A store that cannot even be stamped (full disk, read-only mount)
      // degrades to disabled — the daemon keeps computing without it.
      last_write_error_ = std::strerror(errno);
      open_failed_ = true;
      dir_.clear();
      return;
    }
  }

  lock_fd_ =
      ::open((fs::path(dir_) / "LOCK").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  journal_fd_ = ::open(journal_path().c_str(),
                       O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (lock_fd_ < 0 || journal_fd_ < 0) {
    last_write_error_ = std::strerror(errno);
    open_failed_ = true;
    if (lock_fd_ >= 0) ::close(lock_fd_);
    if (journal_fd_ >= 0) ::close(journal_fd_);
    lock_fd_ = journal_fd_ = -1;
    dir_.clear();
    return;
  }

  std::int64_t journal_size = 0;
  {
    struct stat st {};
    if (::fstat(journal_fd_, &st) == 0) journal_size = st.st_size;
  }
  const bool index_ok = load_index();
  if (!index_ok) {
    // No usable snapshot: replaying the whole journal reconstructs the
    // index exactly (every put and delete is a record, in order).
    index_.clear();
    journal_offset_ = 0;
  }
  // Clean fast path note: when the snapshot is current, the lease below
  // replays zero bytes and reconcile finds nothing to fix — the open
  // performs no write at all, so an armed crash plan cannot fire before
  // the first real put (CrashTorture pins this).
  StoreLease lease(*this);
  const bool adopted = reconcile_with_directory();
  if (!index_ok && (journal_size > 0 || adopted)) ++index_rebuilds_;
}

ResultStore::~ResultStore() {
  if (enabled()) {
    StoreLease lease(*this);
    write_index_snapshot();  // best effort: a lost snapshot only costs replay
  }
  if (lock_fd_ >= 0) ::close(lock_fd_);
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

std::string ResultStore::entry_path(const std::string& key) const {
  return (fs::path(dir_) / cat("k", key, ".entry")).string();
}

std::string ResultStore::index_path() const {
  return (fs::path(dir_) / "INDEX").string();
}

std::string ResultStore::journal_path() const {
  return (fs::path(dir_) / "JOURNAL").string();
}

bool ResultStore::load_index() {
  const std::optional<std::string> text = slurp(index_path());
  if (!text.has_value()) return false;
  std::istringstream in(*text);
  std::string header_line;
  if (!std::getline(in, header_line)) return false;
  std::istringstream header(header_line);
  std::string format;
  std::int64_t covered = -1;
  std::int64_t next_seq = 0;
  std::int64_t epoch = -1;
  header >> format >> covered >> next_seq >> epoch;
  if (!header || format != kIndexFormat || covered < 0 || next_seq < 1 ||
      epoch < 0) {
    return false;
  }
  // A snapshot claiming to cover more journal than exists means the
  // journal was wiped or truncated behind it: distrust the snapshot.
  struct stat st {};
  if (::fstat(journal_fd_, &st) != 0 || st.st_size < covered) return false;
  std::unordered_map<std::string, CacheMeta> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string key;
    CacheMeta meta;
    row >> key >> meta.bytes >> meta.cost >> meta.seq;
    if (!row || !valid_key(key) || meta.bytes < 0 || meta.cost < 1 ||
        meta.seq < 1) {
      return false;
    }
    next_seq = std::max(next_seq, meta.seq + 1);
    rows[key] = meta;
  }
  index_ = std::move(rows);
  journal_offset_ = covered;
  next_seq_ = next_seq;
  epoch_ = epoch;
  return true;
}

void ResultStore::replay_journal() {
  if (!enabled() || journal_fd_ < 0) return;
  struct stat st {};
  if (::fstat(journal_fd_, &st) != 0) return;
  const std::int64_t size = st.st_size;
  if (size <= journal_offset_) return;
  if (::lseek(journal_fd_, journal_offset_, SEEK_SET) < 0) return;
  std::string tail;
  tail.reserve(static_cast<std::size_t>(size - journal_offset_));
  while (static_cast<std::int64_t>(tail.size()) < size - journal_offset_) {
    char chunk[65536];
    const ssize_t n =
        faultio::read(faultio::Site::kStoreJournal, journal_fd_, chunk, sizeof chunk);
    if (n > 0) {
      tail.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // injected failure or early EOF: apply what we have, retry later
  }
  std::size_t pos = 0;
  while (pos < tail.size()) {
    const std::size_t eol = tail.find('\n', pos);
    // A torn tail (a peer crashed mid-append) stays unapplied; the next
    // leased append seals it into a complete — and skipped — line.
    if (eol == std::string::npos) break;
    apply_journal_line(tail.substr(pos, eol - pos));
    pos = eol + 1;
  }
  journal_offset_ += static_cast<std::int64_t>(pos);
}

void ResultStore::apply_journal_line(const std::string& line) {
  std::istringstream in(line);
  std::string op;
  in >> op;
  if (op == "P") {
    std::string key;
    CacheMeta meta;
    in >> key >> meta.bytes >> meta.cost >> meta.seq;
    if (!in || !valid_key(key) || meta.bytes < 0 || meta.cost < 1 || meta.seq < 1) {
      return;
    }
    meta.last_use = 0;
    index_[key] = meta;
    next_seq_ = std::max(next_seq_, meta.seq + 1);
  } else if (op == "D") {
    std::string key;
    std::int64_t epoch = -1;
    in >> key >> epoch;
    if (!in || !valid_key(key) || epoch < 0) return;
    index_.erase(key);
    epoch_ = std::max(epoch_, epoch);
  }
  // Anything else — a sealed torn line, a future record type — is skipped.
}

bool ResultStore::journal_append(const std::string& line) {
  if (journal_fd_ < 0) return false;
  struct stat st {};
  if (::fstat(journal_fd_, &st) != 0) return false;
  std::string record = line;
  record.push_back('\n');
  if (st.st_size > journal_offset_) {
    // Torn tail from a crashed peer append: seal it with a newline so
    // replayers see one complete (and skipped) junk line instead of the
    // debris glued onto our record.
    record.insert(record.begin(), '\n');
  }
  std::size_t off = 0;
  while (off < record.size()) {
    const ssize_t n = faultio::write(faultio::Site::kStoreJournal, journal_fd_,
                                     record.data() + off, record.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Keep our own partial bytes out of the next replay.
    journal_offset_ = st.st_size + static_cast<std::int64_t>(off);
    return false;
  }
  journal_offset_ = st.st_size + static_cast<std::int64_t>(record.size());
  return true;
}

bool ResultStore::reconcile_with_directory() {
  bool adopted = false;
  std::error_code ec;
  std::unordered_set<std::string> on_disk;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    const fs::path& path = entry.path();
    if (path.extension() == ".tmp") {
      std::error_code rm_ec;
      if (fs::remove(path, rm_ec)) ++tmp_swept_;
      continue;
    }
    const std::string name = path.filename().string();
    if (name.size() != 1 + 16 + 6 || name[0] != 'k' ||
        path.extension() != ".entry") {
      continue;
    }
    const std::string key = name.substr(1, 16);
    if (!valid_key(key)) continue;
    on_disk.insert(key);
    if (index_.count(key) != 0) continue;
    // Orphan entry: a crash between the rename and the journal append
    // (store.write.publish). Adopt it from its own header, and journal the
    // put the crash owed, so live peers converge too.
    CacheMeta meta;
    if (read_entry_meta(key, &meta)) {
      index_[key] = meta;
      next_seq_ = std::max(next_seq_, meta.seq + 1);
      journal_append(cat("P ", key, ' ', meta.bytes, ' ', meta.cost, ' ', meta.seq));
      adopted = true;
    } else {
      // Unreadable orphan: debris, not data.
      std::error_code rm_ec;
      fs::remove(path, rm_ec);
      ++corrupt_dropped_;
    }
  }
  check(!ec, [&] { return cat("cannot scan store directory '", dir_, "': ", ec.message()); });
  // Index rows whose file vanished (a peer's eviction whose D record was
  // lost to a crash): drop them, writing the D record the crash owed.
  std::vector<std::string> missing;
  for (const auto& [key, meta] : index_) {
    if (on_disk.count(key) == 0) missing.push_back(key);
  }
  for (const std::string& key : missing) {
    index_.erase(key);
    journal_append(cat("D ", key, ' ', epoch_));
  }
  return adopted;
}

bool ResultStore::read_entry_meta(const std::string& key, CacheMeta* meta) const {
  const int fd = ::open(entry_path(key).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[160];  // a v2 header line is < 100 bytes
  std::size_t got = 0;
  while (got < sizeof buf) {
    const ssize_t n =
        faultio::read(faultio::Site::kStoreRead, fd, buf + got, sizeof buf - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    ::close(fd);
    return false;
  }
  struct stat st {};
  const bool stat_ok = ::fstat(fd, &st) == 0;
  ::close(fd);
  if (!stat_ok) return false;
  const std::string head(buf, got);
  const std::size_t eol = head.find('\n');
  if (eol == std::string::npos) return false;
  std::istringstream header(head.substr(0, eol));
  std::string format;
  std::string stored_key;
  std::int64_t bytes = -1;
  std::int64_t cost = 0;
  std::int64_t seq = 0;
  header >> format >> stored_key >> bytes >> cost >> seq;
  if (!header || format != kEntryFormat || stored_key != key || bytes < 0 ||
      cost < 1 || seq < 1) {
    return false;
  }
  if (st.st_size != static_cast<off_t>(eol + 1 + static_cast<std::size_t>(bytes))) {
    return false;
  }
  *meta = CacheMeta{bytes, cost, seq, 0};
  return true;
}

void ResultStore::write_index_snapshot() {
  if (!enabled()) return;
  std::vector<const std::pair<const std::string, CacheMeta>*> rows;
  rows.reserve(index_.size());
  for (const auto& row : index_) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->second.seq < b->second.seq;
  });
  std::string text =
      cat(kIndexFormat, ' ', journal_offset_, ' ', next_seq_, ' ', epoch_, '\n');
  for (const auto* row : rows) {
    text += cat(row->first, ' ', row->second.bytes, ' ', row->second.cost, ' ',
                row->second.seq, '\n');
  }
  write_then_rename(index_path(), text, options_.fsync);  // best effort
  mutations_ = 0;
}

std::optional<std::string> ResultStore::get(const std::string& key,
                                            std::int64_t* cost_out) {
  if (!enabled()) return std::nullopt;
  auto it = index_.find(key);
  if (it == index_.end()) {
    // Maybe a peer published it: one journal refresh (a single fstat when
    // nothing changed), then the miss stands.
    replay_journal();
    it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
  }
  const std::optional<std::string> bytes = slurp(entry_path(key));
  if (bytes.has_value()) {
    // Header: "srrad-entry/v2 <key16> <payload bytes> <cost> <seq>\n".
    // Validated against the header itself, not the index row — a peer may
    // have just overwritten the entry, and the file is the truth.
    const std::size_t eol = bytes->find('\n');
    if (eol != std::string::npos) {
      std::istringstream header(bytes->substr(0, eol));
      std::string format;
      std::string stored_key;
      std::int64_t size = -1;
      std::int64_t cost = 0;
      std::int64_t seq = 0;
      header >> format >> stored_key >> size >> cost >> seq;
      if (header && format == kEntryFormat && stored_key == key && size >= 0 &&
          cost >= 1 && seq >= 1 &&
          bytes->size() == eol + 1 + static_cast<std::size_t>(size)) {
        it->second.last_use = ++tick_;
        if (cost_out != nullptr) *cost_out = cost;
        return bytes->substr(eol + 1);
      }
    }
  }
  // Unreadable, torn, or mislabeled. A peer may have evicted the file
  // between our lookup and the read — after a leased refresh that is a
  // plain miss; only a key still indexed with a bad file is corruption.
  drop_corrupt(key);
  return std::nullopt;
}

void ResultStore::drop_corrupt(const std::string& key) {
  if (!enabled()) return;
  StoreLease lease(*this);
  if (index_.count(key) == 0) return;
  ++corrupt_dropped_;
  remove_entry(key);
  ++mutations_;
}

bool ResultStore::put(const std::string& key, const std::string& payload,
                      std::int64_t cost) {
  if (!enabled()) return false;
  check(valid_key(key), "ResultStore::put: malformed key");
  cost = std::max<std::int64_t>(1, cost);
  StoreLease lease(*this);
  if (index_.count(key) == 0) evict_for_insert();
  const std::int64_t seq = next_seq_;
  const std::string bytes = cat(kEntryFormat, ' ', key, ' ', payload.size(), ' ',
                                cost, ' ', seq, '\n', payload);
  if (!write_then_rename(entry_path(key), bytes, options_.fsync)) {
    // Degrade, don't throw — but keep the evidence for health reporting.
    ++write_failures_;
    last_write_error_ = std::strerror(errno);
    return false;
  }
  next_seq_ = seq + 1;
  // The P record *after* the rename is the commit: a crash in between
  // leaves an orphan entry that the next open adopts. A failed append is
  // tolerated — the entry still serves locally, and peers adopt it at
  // their next open.
  journal_append(cat("P ", key, ' ', payload.size(), ' ', cost, ' ', seq));
  index_[key] =
      CacheMeta{static_cast<std::int64_t>(payload.size()), cost, seq, ++tick_};
  if (++mutations_ >= kSnapshotEvery) write_index_snapshot();
  return true;
}

void ResultStore::evict_for_insert() {
  while (static_cast<std::int64_t>(index_.size()) >= options_.max_entries &&
         !index_.empty()) {
    const auto [victim, best] = eviction_ends(index_);
    // Classification: did the cost/bytes score single this victim out, or
    // did recency break a tie between equals?
    if (victim->second.score() < best->second.score()) {
      ++evicted_by_cost_;
    } else {
      ++evicted_lru_;
    }
    const std::string key = victim->first;
    remove_entry(key);
    ++evictions_;
    ++mutations_;
  }
}

void ResultStore::remove_entry(const std::string& key) {
  // Unlink *before* the D record: a crash in between leaves a gone file
  // with a stale row — reconciled at the next open — instead of a D for a
  // live file, which could resurrect nothing but confuse replayers.
  std::error_code ec;
  fs::remove(entry_path(key), ec);  // best effort
  ++epoch_;
  journal_append(cat("D ", key, ' ', epoch_));
  index_.erase(key);
}

std::vector<StoreEntryInfo> ResultStore::snapshot() {
  std::vector<StoreEntryInfo> out;
  if (!enabled()) return out;
  replay_journal();
  out.reserve(index_.size());
  for (const auto& [key, meta] : index_) {
    out.push_back(StoreEntryInfo{key, meta.bytes, meta.cost, meta.seq});
  }
  std::sort(out.begin(), out.end(),
            [](const StoreEntryInfo& a, const StoreEntryInfo& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace srra::service
