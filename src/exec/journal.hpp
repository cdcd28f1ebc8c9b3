#pragma once

/// \file journal.hpp
/// Crash-safe batch checkpoint journal.
///
/// After every job that reaches a terminal state, the batch runner (and
/// the daemon) appends a record to `<out>.journal`.  The append writes the
/// record plus a fresh `end` trailer over the old trailer with one
/// positioned write and one fdatasync, so its cost is the record's size,
/// not the journal's.  A kill mid-append can only leave the previous
/// journal with a torn tail after its last complete record, which load()
/// salvages (below).  `--resume` loads the journal, fingerprints every
/// config, and skips jobs whose (path, fingerprint) pair is already
/// terminal — reusing the stored CSV rows so the merged report is
/// byte-identical to an uninterrupted run.
///
/// Format (line-oriented, one file per batch output):
///
/// ```
/// hemcpa-journal v1
/// job fp=<16-hex> status=done|failed|cancelled|abandoned|crashed|poisoned
///     attempts=<n> duration_ms=<n> degraded=<0|1> rows=<k> path=<rest of line>
///     (one line; wrapped here for width)
/// row <one merged-CSV data row>          # exactly k of these
/// ...
/// end
/// ```
///
/// `path=` is always the LAST key so config paths may contain spaces or
/// '='; `end` is the completeness trailer.  `crashed` records a worker
/// process death (signal in the batch diagnostics); `poisoned` marks a
/// config that crashed its worker twice — `--resume` and a restarted
/// daemon skip it without re-running.
///
/// Loading distinguishes two failure shapes.  A *torn tail* — the file is
/// a truncated prefix of a valid journal, or a valid journal followed by
/// stray bytes after `end`; an interrupted append leaves the first — is
/// recovered: every complete record before the tear is replayed, the torn
/// bytes are quarantined to `<journal>.torn`, and the journal is rewritten
/// valid.  *Wholesale corruption* (the header line is not even a prefix of
/// a journal) still throws: that file was never ours.
/// See docs/robustness.md.

#include <cstdint>
#include <string>
#include <vector>

namespace hem::exec {

/// FNV-1a 64-bit over raw bytes — stable, dependency-free content stamp
/// for config files (collision resistance is ample for fleet-size sets).
[[nodiscard]] std::uint64_t fingerprint_bytes(const void* data, std::size_t size) noexcept;

/// Fingerprint a file's exact bytes (no newline normalisation: a config
/// edited in ANY way re-runs on resume).
/// \throws std::runtime_error when the file cannot be read.
[[nodiscard]] std::uint64_t fingerprint_file(const std::string& path);

/// Fixed-width 16-digit lowercase hex rendering used in the journal.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);

/// One terminal job record.
struct JournalEntry {
  std::string config_path;        ///< as given in the manifest / directory scan
  std::uint64_t fingerprint = 0;  ///< fingerprint_file() of the config at run time
  std::string status;  ///< done | failed | cancelled | abandoned | crashed | poisoned
  int attempts = 1;               ///< total attempts incl. the terminal one
  long duration_ms = 0;           ///< wall clock of the terminal attempt
  bool degraded = false;          ///< report carried fallback bounds
  std::vector<std::string> rows;  ///< merged-CSV data rows (config column included)

  /// Terminal-and-successful: resume reuses the stored rows.
  [[nodiscard]] bool completed() const { return status == "done"; }
};

/// The journal file: an in-memory entry list mirrored to disk.  add()
/// appends one record over the trailer; creation, clear() and recovery
/// replace the whole file atomically (temp file + rename).
class Journal {
 public:
  /// Outcome of torn-tail recovery during load()/parse_tolerant().
  struct Recovery {
    bool torn = false;              ///< ended mid-record / without `end`, or bytes follow `end`
    std::size_t valid_bytes = 0;    ///< byte length of the replayable prefix
    std::size_t entries_kept = 0;   ///< complete records salvaged
    std::string reason;             ///< what the tear looked like
    std::string quarantine_path;    ///< where load() parked the torn bytes
  };

  explicit Journal(std::string path) : path_(std::move(path)) {}

  /// Load an existing journal from disk.  Returns false when the file does
  /// not exist (fresh batch).  A torn tail (truncated write) is recovered,
  /// not fatal: the complete-record prefix is replayed, the torn bytes move
  /// to `<journal>.torn`, the journal is rewritten valid, and
  /// last_recovery() describes what happened.
  /// \throws std::runtime_error on wholesale corruption (foreign header).
  bool load();

  /// Details of the torn-tail recovery performed by the last load(); torn
  /// is false when the file was intact.
  [[nodiscard]] const Recovery& last_recovery() const noexcept { return recovery_; }

  /// Record a terminal job: write the record and a new `end` trailer at the
  /// old trailer's offset, then fdatasync — durable before it returns.
  /// The first add() to a journal never loaded or saved by this object,
  /// and any add() whose append fails, rewrites the whole file instead.
  /// \throws std::runtime_error when the journal cannot be written.
  void add(JournalEntry entry);

  /// Drop all entries and persist an empty journal — a fresh (non-resume)
  /// batch calls this up front, which also verifies writability before any
  /// work is spent.
  void clear();

  [[nodiscard]] const std::vector<JournalEntry>& entries() const noexcept { return entries_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Find the terminal record for a config (path AND content fingerprint
  /// must match; a touched config re-runs).  Returns nullptr when absent.
  [[nodiscard]] const JournalEntry* find(const std::string& config_path,
                                         std::uint64_t fingerprint) const;

  /// Find by content fingerprint alone — the daemon's idempotency lookup,
  /// where submissions arrive as socket payloads without a stable path.
  /// Returns the most recent matching record, nullptr when absent.
  [[nodiscard]] const JournalEntry* find(std::uint64_t fingerprint) const;

  /// Render the full journal text (exposed for tests).
  [[nodiscard]] std::string render() const;

  /// Parse a journal text into entries (exposed for tests).
  /// \throws std::runtime_error on malformed input.
  [[nodiscard]] static std::vector<JournalEntry> parse(const std::string& text);

  /// Tolerant parse: salvage the longest prefix of complete records and
  /// report everything after it (the torn tail, including any bytes after
  /// `end`) in `recovery` — tolerant to truncation at ANY byte offset of a
  /// machine-written journal.
  /// \throws std::runtime_error only when the first line is not even a
  ///         truncation of the journal header (wholesale corruption).
  [[nodiscard]] static std::vector<JournalEntry> parse_tolerant(const std::string& text,
                                                                Recovery& recovery);

 private:
  void save();
  [[nodiscard]] bool append_last();

  /// Offset of the on-disk `end\n` trailer; kNoTrailer until this object
  /// has loaded or written a valid file (the next add() then saves whole).
  static constexpr std::size_t kNoTrailer = static_cast<std::size_t>(-1);

  std::string path_;
  std::vector<JournalEntry> entries_;
  Recovery recovery_;
  std::size_t trailer_ = kNoTrailer;
};

}  // namespace hem::exec
