#include "exec/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exec/batch_runner.hpp"

namespace hem::exec {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  void write(const std::string& text) const {
    std::ofstream out(path_, std::ios::binary);
    out << text;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The disk holds exactly render(), and a fresh load() reads it back.
void expect_disk_matches(const Journal& j, const std::string& when) {
  EXPECT_EQ(slurp(j.path()), j.render()) << when;
  Journal again(j.path());
  ASSERT_TRUE(again.load()) << when;
  EXPECT_FALSE(again.last_recovery().torn) << when;
  EXPECT_EQ(again.render(), j.render()) << when;
}

JournalEntry entry(const std::string& path, std::uint64_t fp, const std::string& status) {
  JournalEntry e;
  e.config_path = path;
  e.fingerprint = fp;
  e.status = status;
  e.attempts = 2;
  e.duration_ms = 17;
  e.degraded = (status == "done");
  if (status == "done") {
    e.rows.push_back(path + ",T1,CPU,1,2,3,4,0.5,converged");
    e.rows.push_back(path + ",T2,CPU,2,4,3,4,0.5,converged");
  }
  return e;
}

TEST(JournalTest, FingerprintIsDeterministicAndContentSensitive) {
  const std::string a = "resource R spp\n";
  const std::string b = "resource R spp \n";  // one extra byte
  EXPECT_EQ(fingerprint_bytes(a.data(), a.size()), fingerprint_bytes(a.data(), a.size()));
  EXPECT_NE(fingerprint_bytes(a.data(), a.size()), fingerprint_bytes(b.data(), b.size()));
  EXPECT_NE(fingerprint_bytes(a.data(), a.size()), fingerprint_bytes(a.data(), a.size() - 1));
}

TEST(JournalTest, FingerprintFileMatchesBytesAndRejectsMissing) {
  TempFile f("journal_fp_config.hemcpa");
  const std::string text = "resource R spp\r\nsource s periodic period=5\r\n";
  f.write(text);
  EXPECT_EQ(fingerprint_file(f.path()), fingerprint_bytes(text.data(), text.size()));
  EXPECT_THROW((void)fingerprint_file(f.path() + ".missing"), std::runtime_error);
}

TEST(JournalTest, FingerprintHexIsFixedWidthLowercase) {
  EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
  EXPECT_EQ(fingerprint_hex(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
}

TEST(JournalTest, RenderParseRoundTrip) {
  std::vector<JournalEntry> in;
  in.push_back(entry("a.hemcpa", 0x1111, "done"));
  in.push_back(entry("dir with spaces/b v=2.hemcpa", 0x2222, "cancelled"));
  in.push_back(entry("c.hemcpa", 0x3333, "failed"));

  TempFile f("journal_roundtrip.journal");
  Journal real(f.path());
  for (const auto& e : in) real.add(e);
  const std::string text = real.render();

  const auto out = Journal::parse(text);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].config_path, in[i].config_path);
    EXPECT_EQ(out[i].fingerprint, in[i].fingerprint);
    EXPECT_EQ(out[i].status, in[i].status);
    EXPECT_EQ(out[i].attempts, in[i].attempts);
    EXPECT_EQ(out[i].duration_ms, in[i].duration_ms);
    EXPECT_EQ(out[i].degraded, in[i].degraded);
    EXPECT_EQ(out[i].rows, in[i].rows);
  }
}

TEST(JournalTest, PathMayContainSpacesAndEquals) {
  TempFile f("journal_pathy.journal");
  Journal j(f.path());
  j.add(entry("configs/run=3 final copy.hemcpa", 0xABC, "done"));
  const auto out = Journal::parse(j.render());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].config_path, "configs/run=3 final copy.hemcpa");
}

TEST(JournalTest, LoadReturnsFalseWhenAbsent) {
  Journal j(std::string(::testing::TempDir()) + "definitely_missing_journal_file.journal");
  EXPECT_FALSE(j.load());
  EXPECT_TRUE(j.entries().empty());
}

TEST(JournalTest, AddPersistsAndLoadRestores) {
  TempFile f("journal_persist.journal");
  {
    Journal j(f.path());
    j.add(entry("a.hemcpa", 0x1, "done"));
    j.add(entry("b.hemcpa", 0x2, "failed"));
  }
  Journal j2(f.path());
  ASSERT_TRUE(j2.load());
  ASSERT_EQ(j2.entries().size(), 2u);
  EXPECT_EQ(j2.entries()[0].config_path, "a.hemcpa");
  EXPECT_EQ(j2.entries()[1].status, "failed");
}

TEST(JournalTest, ClearEmptiesDiskAndMemory) {
  TempFile f("journal_clear.journal");
  Journal j(f.path());
  j.add(entry("a.hemcpa", 0x1, "done"));
  j.clear();
  EXPECT_TRUE(j.entries().empty());
  Journal j2(f.path());
  ASSERT_TRUE(j2.load());  // file exists (clear persists an empty journal)
  EXPECT_TRUE(j2.entries().empty());
}

TEST(JournalTest, FindMatchesPathAndFingerprint) {
  TempFile f("journal_find.journal");
  Journal j(f.path());
  j.add(entry("a.hemcpa", 0x10, "done"));
  ASSERT_NE(j.find("a.hemcpa", 0x10), nullptr);
  EXPECT_TRUE(j.find("a.hemcpa", 0x10)->completed());
  EXPECT_EQ(j.find("a.hemcpa", 0x11), nullptr);  // edited config re-runs
  EXPECT_EQ(j.find("b.hemcpa", 0x10), nullptr);
}

TEST(JournalTest, CompletedOnlyForDone) {
  EXPECT_TRUE(entry("a", 1, "done").completed());
  EXPECT_FALSE(entry("a", 1, "failed").completed());
  EXPECT_FALSE(entry("a", 1, "cancelled").completed());
  EXPECT_FALSE(entry("a", 1, "abandoned").completed());
}

TEST(JournalTest, ParseRejectsCorruptInput) {
  // Wrong header.
  EXPECT_THROW((void)Journal::parse("not-a-journal v1\nend\n"), std::runtime_error);
  // Missing the `end` completeness trailer (torn write).
  EXPECT_THROW((void)Journal::parse("hemcpa-journal v1\n"), std::runtime_error);
  // Unknown status.
  EXPECT_THROW((void)Journal::parse("hemcpa-journal v1\n"
                                    "job fp=0000000000000001 status=exploded attempts=1 "
                                    "duration_ms=1 degraded=0 rows=0 path=a\n"
                                    "end\n"),
               std::runtime_error);
  // Fewer row lines than announced.
  EXPECT_THROW((void)Journal::parse("hemcpa-journal v1\n"
                                    "job fp=0000000000000001 status=done attempts=1 "
                                    "duration_ms=1 degraded=0 rows=2 path=a\n"
                                    "row a,T,R,1,1,1,1,0.1,converged\n"
                                    "end\n"),
               std::runtime_error);
  // Garbage between records.
  EXPECT_THROW((void)Journal::parse("hemcpa-journal v1\nwat\nend\n"), std::runtime_error);
}

TEST(JournalTest, ParseAcceptsCrashedAndPoisonedStatuses) {
  const auto out = Journal::parse(
      "hemcpa-journal v1\n"
      "job fp=0000000000000001 status=crashed attempts=1 duration_ms=1 "
      "degraded=0 rows=0 path=a\n"
      "job fp=0000000000000002 status=poisoned attempts=2 duration_ms=1 "
      "degraded=0 rows=0 path=b\n"
      "end\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].status, "crashed");
  EXPECT_EQ(out[1].status, "poisoned");
  EXPECT_FALSE(out[0].completed());
  EXPECT_FALSE(out[1].completed());
}

TEST(JournalTest, LoadRecoversTornTail) {
  TempFile f("journal_torn.journal");
  const std::string complete =
      "hemcpa-journal v1\n"
      "job fp=0000000000000001 status=done attempts=1 duration_ms=1 "
      "degraded=0 rows=1 path=a.hemcpa\n"
      "row a.hemcpa,T,R,1,1,1,1,0.1,converged\n";
  const std::string torn_tail =
      "job fp=0000000000000002 status=do";  // killed mid-record, no `end`
  f.write(complete + torn_tail);
  Journal j(f.path());
  ASSERT_TRUE(j.load());
  ASSERT_EQ(j.entries().size(), 1u);
  EXPECT_EQ(j.entries()[0].config_path, "a.hemcpa");
  EXPECT_TRUE(j.last_recovery().torn);
  EXPECT_EQ(j.last_recovery().valid_bytes, complete.size());
  EXPECT_EQ(j.last_recovery().entries_kept, 1u);
  // The torn bytes are quarantined verbatim next to the journal...
  std::ifstream quarantined(j.last_recovery().quarantine_path, std::ios::binary);
  ASSERT_TRUE(quarantined.good());
  std::ostringstream qbuf;
  qbuf << quarantined.rdbuf();
  EXPECT_EQ(qbuf.str(), torn_tail);
  // ...and the journal itself is rewritten valid: a second load is clean.
  Journal j2(f.path());
  ASSERT_TRUE(j2.load());
  EXPECT_FALSE(j2.last_recovery().torn);
  ASSERT_EQ(j2.entries().size(), 1u);
  std::remove(j.last_recovery().quarantine_path.c_str());
}

TEST(JournalTest, TruncationAtEveryByteOffsetSalvagesExactlyThePrefix) {
  // A machine-written journal interrupted at ANY byte offset must split
  // cleanly: every complete record before the tear is replayed, nothing
  // after it leaks through, and the strict parser refuses the same text.
  std::vector<JournalEntry> in;
  in.push_back(entry("a.hemcpa", 0x1, "done"));
  in.push_back(entry("b dir/with=weird path.hemcpa", 0x2, "crashed"));
  in.push_back(entry("c.hemcpa", 0x3, "poisoned"));
  TempFile f("journal_offsets.journal");
  Journal whole(f.path());
  for (const auto& e : in) whole.add(e);
  const std::string text = whole.render();

  // Byte offsets where each record becomes complete (end of its last line).
  std::vector<std::size_t> record_ends;
  {
    Journal::Recovery r;
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      const auto got = Journal::parse_tolerant(text.substr(0, cut), r);
      if (record_ends.size() < got.size()) record_ends.push_back(r.valid_bytes);
    }
  }
  ASSERT_EQ(record_ends.size(), in.size());

  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    const std::string torn = text.substr(0, cut);
    Journal::Recovery r;
    std::vector<JournalEntry> got;
    ASSERT_NO_THROW(got = Journal::parse_tolerant(torn, r)) << "offset " << cut;
    ASSERT_TRUE(r.torn) << "offset " << cut;
    // Exactly the records whose bytes are fully inside the prefix survive.
    std::size_t expect = 0;
    while (expect < record_ends.size() && record_ends[expect] <= cut) ++expect;
    ASSERT_EQ(got.size(), expect) << "offset " << cut;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].config_path, in[i].config_path) << "offset " << cut;
      EXPECT_EQ(got[i].fingerprint, in[i].fingerprint) << "offset " << cut;
      EXPECT_EQ(got[i].status, in[i].status) << "offset " << cut;
      EXPECT_EQ(got[i].rows, in[i].rows) << "offset " << cut;
    }
    EXPECT_LE(r.valid_bytes, cut) << "offset " << cut;
    // The strict parser must reject every torn prefix (the daemon relies on
    // this split to tell tears from foreign files).
    EXPECT_THROW((void)Journal::parse(torn), std::runtime_error) << "offset " << cut;
  }
  // The untruncated text parses strictly, as a sanity anchor.
  EXPECT_EQ(Journal::parse(text).size(), in.size());
}

TEST(JournalTest, LoadRecoversEveryTruncationOffsetOfARealFile) {
  std::vector<JournalEntry> in;
  in.push_back(entry("a.hemcpa", 0xA, "done"));
  in.push_back(entry("b.hemcpa", 0xB, "failed"));
  TempFile f("journal_load_offsets.journal");
  Journal whole(f.path());
  for (const auto& e : in) whole.add(e);
  const std::string text = whole.render();

  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    TempFile torn("journal_load_offsets_cut.journal");
    torn.write(text.substr(0, cut));
    Journal j(torn.path());
    ASSERT_TRUE(j.load()) << "offset " << cut;
    ASSERT_TRUE(j.last_recovery().torn) << "offset " << cut;
    // Quarantine holds exactly the bytes past the salvaged prefix.
    std::ifstream q(j.last_recovery().quarantine_path, std::ios::binary);
    ASSERT_TRUE(q.good()) << "offset " << cut;
    std::ostringstream qbuf;
    qbuf << q.rdbuf();
    EXPECT_EQ(qbuf.str(), text.substr(j.last_recovery().valid_bytes, cut - j.last_recovery().valid_bytes))
        << "offset " << cut;
    // The rewritten journal is whole again.
    Journal again(torn.path());
    ASSERT_TRUE(again.load()) << "offset " << cut;
    EXPECT_FALSE(again.last_recovery().torn) << "offset " << cut;
    EXPECT_EQ(again.entries().size(), j.entries().size()) << "offset " << cut;
    std::remove(j.last_recovery().quarantine_path.c_str());
  }
}

TEST(JournalTest, LoadStillThrowsOnForeignFile) {
  TempFile f("journal_foreign.journal");
  f.write("totally unrelated file contents\nnot a journal\n");
  Journal j(f.path());
  EXPECT_THROW((void)j.load(), std::runtime_error);
}

TEST(JournalTest, BytesAfterEndAreQuarantinedAndRewritten) {
  TempFile f("journal_trailing.journal");
  const std::string valid =
      "hemcpa-journal v1\n"
      "job fp=0000000000000001 status=failed attempts=1 duration_ms=1 "
      "degraded=0 rows=0 path=a.hemcpa\n"
      "end\n";
  f.write(valid + "JUNK");
  // Strict parsing refuses the stray bytes; tolerant parsing keeps the records.
  EXPECT_THROW((void)Journal::parse(valid + "JUNK"), std::runtime_error);
  Journal j(f.path());
  ASSERT_TRUE(j.load());
  ASSERT_EQ(j.entries().size(), 1u);
  EXPECT_TRUE(j.last_recovery().torn);
  EXPECT_EQ(j.last_recovery().valid_bytes, valid.size());
  EXPECT_EQ(slurp(j.last_recovery().quarantine_path), "JUNK");
  EXPECT_EQ(slurp(f.path()), valid);
  // The next append lands over the trailer, not after the junk.
  j.add(entry("b.hemcpa", 0x2, "done"));
  EXPECT_EQ(slurp(f.path()), j.render());
  std::remove(j.last_recovery().quarantine_path.c_str());
}

TEST(JournalTest, AppendedFileEqualsRender) {
  TempFile f("journal_append_render.journal");
  {
    Journal j(f.path());
    j.clear();
    expect_disk_matches(j, "after clear");
    for (int i = 0; i < 5; ++i) {
      j.add(entry("c" + std::to_string(i) + ".hemcpa", 0x100 + i, i % 2 ? "failed" : "done"));
      expect_disk_matches(j, "clear + add #" + std::to_string(i));
    }
  }
  {
    Journal j(f.path());
    ASSERT_TRUE(j.load());
    j.add(entry("after load.hemcpa", 0x200, "done"));
    expect_disk_matches(j, "load + add");
  }
  {
    const std::string text = slurp(f.path());
    f.write(text.substr(0, text.size() - 9));  // torn mid-row, no `end`
    Journal j(f.path());
    ASSERT_TRUE(j.load());
    ASSERT_TRUE(j.last_recovery().torn);
    j.add(entry("after tear.hemcpa", 0x300, "cancelled"));
    expect_disk_matches(j, "torn recovery + add");
    std::remove(j.last_recovery().quarantine_path.c_str());
  }
  {
    f.write(slurp(f.path()) + "stray bytes\nend\n");
    Journal j(f.path());
    ASSERT_TRUE(j.load());
    ASSERT_TRUE(j.last_recovery().torn);
    j.add(entry("after junk.hemcpa", 0x400, "done"));
    expect_disk_matches(j, "bytes after end + add");
    std::remove(j.last_recovery().quarantine_path.c_str());
  }
}

TEST(JournalTest, InterruptedAppendKeepsEveryEarlierRecord) {
  // A real batch journal; its last record is the append we interrupt.
  const std::string dir = std::string(::testing::TempDir()) + "journal_interrupted_";
  std::vector<std::string> configs;
  for (int i = 0; i < 3; ++i) {
    configs.push_back(dir + std::to_string(i) + ".hemcpa");
    std::ofstream(configs.back(), std::ios::binary)
        << "resource CPU1 spp\nsource s1 periodic period=" << 10 * (i + 1)
        << "\ntask A resource=CPU1 priority=1 cet=" << i + 1 << "\nactivate A from=s1\n";
  }
  BatchOptions opt;
  opt.journal_path = dir + "out.journal";
  std::ostringstream baseline;
  BatchRunner(configs, opt).run().write_csv(baseline);
  const std::string text = slurp(opt.journal_path);
  const std::vector<JournalEntry> all = Journal::parse(text);
  ASSERT_EQ(all.size(), configs.size());

  // The journal as it stood before the last add(), and the bytes that add()
  // writes over its trailer: record + "end\n".
  const std::size_t start = text.rfind("\njob ") + 1;
  const std::string before = text.substr(0, start) + "end\n";
  const std::string appended = text.substr(start);
  const std::size_t record = appended.size() - 4;
  const auto interrupted_at = [&](std::size_t k) {
    std::string s = before;
    s.resize(std::max(s.size(), start + k));
    s.replace(start, k, appended, 0, k);
    return s;
  };

  for (std::size_t k = 0; k <= appended.size(); ++k) {
    TempFile torn("journal_interrupted_cut.journal");
    torn.write(interrupted_at(k));
    Journal j(torn.path());
    ASSERT_NO_THROW((void)j.load()) << "k=" << k;
    const std::size_t expect = all.size() - 1 + (k >= record ? 1 : 0);
    ASSERT_EQ(j.entries().size(), expect) << "k=" << k;
    for (std::size_t i = 0; i < expect; ++i)
      EXPECT_EQ(j.entries()[i].config_path, all[i].config_path) << "k=" << k;
    EXPECT_EQ(slurp(torn.path()), j.render()) << "k=" << k;
    std::remove((torn.path() + ".torn").c_str());
  }

  // --resume from the trailer-overlap states, both sides of the record's
  // last newline, and the finished append.
  for (const std::size_t k :
       std::vector<std::size_t>{0, 1, 3, 4, record / 2, record - 1, record, record + 1,
                                appended.size()}) {
    std::ofstream(opt.journal_path, std::ios::binary | std::ios::trunc) << interrupted_at(k);
    BatchOptions resume = opt;
    resume.resume = true;
    std::ostringstream csv;
    BatchRunner(configs, resume).run().write_csv(csv);
    EXPECT_EQ(csv.str(), baseline.str()) << "resume from k=" << k;
  }
  for (const std::string& c : configs) std::remove(c.c_str());
  for (const char* suffix : {"", ".torn"}) std::remove((opt.journal_path + suffix).c_str());
}

}  // namespace
}  // namespace hem::exec
