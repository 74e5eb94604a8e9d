// Evidence JSON at memory speed: the buffered diag::JsonWriter against the
// byte-at-a-time ostream writer it replaced, its flush contract, and the
// run-scanning string parser of tools/json_mini.hpp against the
// byte-at-a-time loop it replaced.  The old implementations live on below
// as oracles: every emitted byte and every parsed value or error text must
// be unchanged.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyze.hpp"
#include "diag/json.hpp"
#include "json_mini.hpp"

#ifndef SYMCEX_GOLDEN_DIR
#error "SYMCEX_GOLDEN_DIR must point at tests/golden"
#endif

namespace symcex {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the ostream writer, one `os << c` per byte.
// ---------------------------------------------------------------------------

namespace oracle {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string json_number_token(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) {
    return v > 0 ? "1.7976931348623157e308" : "-1.7976931348623157e308";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string out(buf);
  for (char& c : out) {
    if (c == ',') c = '.';
  }
  return out;
}

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}
  void begin_object() {
    separate();
    os_ << '{';
    need_comma_.push_back(false);
  }
  void end_object() {
    os_ << '}';
    need_comma_.pop_back();
  }
  void begin_array() {
    separate();
    os_ << '[';
    need_comma_.push_back(false);
  }
  void end_array() {
    os_ << ']';
    need_comma_.pop_back();
  }
  void key(std::string_view k) {
    separate();
    write_json_string(os_, k);
    os_ << ": ";
    if (!need_comma_.empty()) need_comma_.back() = false;
  }
  void value(std::string_view s) {
    separate();
    write_json_string(os_, s);
  }
  void value(bool b) {
    separate();
    os_ << (b ? "true" : "false");
  }
  void value(std::int64_t i) {
    separate();
    os_ << std::to_string(i);
  }
  void value(std::uint64_t u) {
    separate();
    os_ << std::to_string(u);
  }
  void value(double d) {
    separate();
    os_ << json_number_token(d);
  }
  void raw(std::string_view json) {
    separate();
    os_ << json;
  }

 private:
  void separate() {
    if (!need_comma_.empty()) {
      if (need_comma_.back()) os_ << ", ";
      need_comma_.back() = true;
    }
  }
  std::ostream& os_;
  std::vector<bool> need_comma_;
};

}  // namespace oracle

// ---------------------------------------------------------------------------
// Seeded random documents, replayed on any writer with the same interface.
// ---------------------------------------------------------------------------

/// Every byte value once: quotes, backslashes, all control bytes, DEL and
/// the high bytes.
std::string every_byte() {
  std::string s;
  for (int c = 0; c < 256; ++c) s.push_back(static_cast<char>(c));
  return s;
}

std::string random_text(std::mt19937_64& rng) {
  static const std::string kSpecial = "\"\\\n\t\r\b\f\x01\x1f\x7f\x80\xff";
  std::size_t size = rng() % 24;
  if (rng() % 16 == 0) size = 100 + rng() % 2000;
  // Now and then a string past the writer's flush size, so the stream
  // writer splits it into chunks.
  if (rng() % 64 == 0) size = diag::JsonWriter::kFlushBytes + rng() % 5000;
  std::string s;
  for (std::size_t i = 0; i < size; ++i) {
    switch (rng() % 8) {
      case 0:
        s.push_back(kSpecial[rng() % kSpecial.size()]);
        break;
      case 1:
        s.push_back(static_cast<char>(rng() % 256));
        break;
      default:
        s.push_back(static_cast<char>('a' + rng() % 26));
    }
  }
  return s;
}

template <typename Writer>
void emit_scalar(Writer& w, std::mt19937_64& rng) {
  static const std::int64_t kInts[] = {
      0, -1, 1, std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  static const double kDoubles[] = {
      0.0, -0.0, 0.5, 5e-324, 1e308, -2.5e-7,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  switch (rng() % 9) {
    case 0:
      w.value(kInts[rng() % std::size(kInts)]);
      break;
    case 1:
      w.value(static_cast<std::int64_t>(rng()));
      break;
    case 2:
      w.value(rng() % 2 == 0 ? std::numeric_limits<std::uint64_t>::max()
                             : static_cast<std::uint64_t>(rng()));
      break;
    case 3:
      w.value(kDoubles[rng() % std::size(kDoubles)]);
      break;
    case 4:
      w.value(static_cast<double>(static_cast<std::int64_t>(rng())) / 1024.0);
      break;
    case 5:
      w.value(rng() % 2 == 0);
      break;
    case 6:
      w.raw("{\"pre\": [true, null]}");
      break;
    default:
      w.value(std::string_view(random_text(rng)));
  }
}

template <typename Writer>
void emit_value(Writer& w, std::mt19937_64& rng, int depth) {
  const auto kind = depth >= 4 ? 2 : rng() % 3;
  if (kind == 0) {
    w.begin_object();
    const auto n = rng() % 6;
    for (std::uint64_t i = 0; i < n; ++i) {
      w.key(std::string_view(random_text(rng)));
      emit_value(w, rng, depth + 1);
    }
    w.end_object();
  } else if (kind == 1) {
    w.begin_array();
    const auto n = rng() % 6;
    for (std::uint64_t i = 0; i < n; ++i) emit_value(w, rng, depth + 1);
    w.end_array();
  } else {
    emit_scalar(w, rng);
  }
}

template <typename Writer>
void emit_document(Writer& w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  w.begin_object();
  w.key(std::string_view(every_byte()));
  w.value(std::string_view(every_byte()));
  w.key("body");
  emit_value(w, rng, 0);
  w.end_object();
}

TEST(JsonWriterOracle, BytesMatchTheOstreamWriterOnRandomDocuments) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    std::ostringstream expect_os;
    {
      oracle::JsonWriter w(expect_os);
      emit_document(w, seed);
    }
    const std::string expect = expect_os.str();

    std::string direct;
    {
      diag::JsonWriter w(direct);
      emit_document(w, seed);
    }
    ASSERT_EQ(direct, expect);

    std::ostringstream streamed;
    {
      diag::JsonWriter w(streamed);
      emit_document(w, seed);
      // The outermost value has closed: everything reached the stream
      // while the writer is still alive.
      ASSERT_EQ(streamed.str(), expect);
    }
    ASSERT_EQ(streamed.str(), expect);
  }
}

TEST(JsonWriterOracle, FreeHelpersMatchTheOracle) {
  const std::string all = every_byte();
  std::ostringstream a;
  std::ostringstream b;
  oracle::write_json_string(a, all);
  diag::write_json_string(b, all);
  EXPECT_EQ(b.str(), a.str());
  for (const double d : {0.1, -0.0, 1e300, 5e-324,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(diag::json_number_token(d), oracle::json_number_token(d));
    std::ostringstream os;
    diag::write_json_double(os, d);
    EXPECT_EQ(os.str(), oracle::json_number_token(d));
  }
}

// ---------------------------------------------------------------------------
// Flush contract
// ---------------------------------------------------------------------------

TEST(JsonWriterFlush, StreamWritesBetweenTopLevelValuesStayInOrder) {
  std::ostringstream os;
  diag::JsonWriter w(os);
  w.begin_object();
  w.member("a", 1);
  w.end_object();
  os << "\n";
  w.value("x");
  os << "|";
  w.value(7);
  os << "|";
  w.begin_array();
  w.value(true);
  w.end_array();
  os << "\n";
  EXPECT_EQ(os.str(), "{\"a\": 1}\n\"x\"|7|[true]\n");
}

TEST(JsonWriterFlush, LintReportsStreamOneLinePerReport) {
  // symcex-lint writes each report, then a newline, on one stream.
  analyze::LintReport clean;
  analyze::LintReport dirty;
  dirty.findings.push_back({"unused-var", "x is never read", 3, false});
  std::ostringstream os;
  clean.write_json(os, "a.smv");
  dirty.write_json(os, "b.smv");
  const std::string text = os.str();
  const std::size_t newline = text.find('\n');
  ASSERT_NE(newline, std::string::npos);
  ASSERT_EQ(text.back(), '\n');
  const jsonmini::Value first = jsonmini::parse(text.substr(0, newline));
  const jsonmini::Value second = jsonmini::parse(
      text.substr(newline + 1, text.size() - newline - 2));
  EXPECT_EQ(first.find("file")->string, "a.smv");
  EXPECT_TRUE(first.find("clean")->boolean);
  EXPECT_EQ(second.find("file")->string, "b.smv");
  EXPECT_EQ(second.find("findings")->array.size(), 1u);
}

/// A stream buffer that records the size of every write it receives.
class RecordingBuf : public std::streambuf {
 public:
  std::vector<std::size_t> writes;
  std::size_t total = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    writes.push_back(static_cast<std::size_t>(n));
    total += static_cast<std::size_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) xsputn(nullptr, 1);
    return traits_type::not_eof(c);
  }
};

TEST(JsonWriterFlush, LargeDocumentsReachTheStreamInBoundedChunks) {
  constexpr std::size_t kChunk = diag::JsonWriter::kFlushBytes;
  RecordingBuf sink;
  std::ostream os(&sink);
  {
    diag::JsonWriter w(os);
    w.begin_array();
    const std::string kib(1024, 'k');
    for (int i = 0; i < 600; ++i) w.value(std::string_view(kib));
    // About 600 KiB written and the array still open: most of it has
    // already been handed over, a chunk at a time.
    EXPECT_GE(sink.total, 600 * 1024 - 2 * kChunk);
    // One plain 1 MiB string is split, not buffered whole.
    const std::string mib(std::size_t{1} << 20, 'm');
    w.value(std::string_view(mib));
    EXPECT_GE(sink.total, (std::size_t{1} << 20) + 600 * 1024 - 2 * kChunk);
    w.end_array();
  }
  ASSERT_FALSE(sink.writes.empty());
  for (const std::size_t n : sink.writes) EXPECT_LE(n, 2 * kChunk);
}

// ---------------------------------------------------------------------------
// Oracle: the byte-at-a-time string loop of the strict parser, applied to
// a document that is one string literal.  Returns the value, or the error
// text the parser would throw, in *error.
// ---------------------------------------------------------------------------

std::string reference_string_document(std::string_view text,
                                      std::string* error) {
  std::size_t pos = 0;
  std::string out;
  const auto fail = [&](const std::string& what) {
    *error = "json: " + what + " at byte " + std::to_string(pos);
    return std::string();
  };
  const auto hex4 = [&](unsigned& code) -> bool {
    code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos >= text.size()) return fail("truncated \\u escape"), false;
      const char h = text[pos++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        return fail("invalid hex digit in \\u escape"), false;
      }
    }
    return true;
  };
  const auto utf8 = [&](unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  };
  ++pos;  // the opening quote
  while (true) {
    if (pos >= text.size()) return fail("unterminated string");
    const unsigned char c = static_cast<unsigned char>(text[pos++]);
    if (c == '"') break;
    if (c < 0x20) return fail("unescaped control character in string");
    if (c != '\\') {
      out.push_back(static_cast<char>(c));
      continue;
    }
    if (pos >= text.size()) return fail("unterminated escape");
    const char e = text[pos++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        unsigned code = 0;
        if (!hex4(code)) return {};
        if (code >= 0xd800 && code <= 0xdbff) {
          if (pos + 1 >= text.size() || text[pos] != '\\' ||
              text[pos + 1] != 'u') {
            return fail("unpaired surrogate");
          }
          pos += 2;
          unsigned low = 0;
          if (!hex4(low)) return {};
          if (low < 0xdc00 || low > 0xdfff) return fail("unpaired surrogate");
          code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        } else if (code >= 0xdc00 && code <= 0xdfff) {
          return fail("unpaired surrogate");
        }
        utf8(code);
        break;
      }
      default:
        return fail("invalid escape character");
    }
  }
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                               text[pos] == '\n' || text[pos] == '\r')) {
    ++pos;
  }
  if (pos != text.size()) return fail("trailing content after JSON value");
  return out;
}

/// A string literal built from runs and escapes in random order, so that
/// escapes land at the start, the end, and both edges of every run; one
/// document in four carries a defect (raw control byte, bad escape, cut
/// \u, lone surrogate, stray quote, missing close).
std::string random_literal(std::mt19937_64& rng) {
  static const char* const kEscapes[] = {
      "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041",
      "\\u00e9", "\\u20AC", "\\ud83d\\ude00", "\\u0000", "\xc3\xa9", "\xff"};
  static const char* const kDefects[] = {
      "\x01", "\x1f", "\\x", "\\u12", "\\u12g4", "\\ud800", "\\ud800x",
      "\\ud800\\u0041", "\\udc00", "\"", "\\"};
  std::string s = "\"";
  const auto pieces = rng() % 8;
  for (std::uint64_t i = 0; i < pieces; ++i) {
    if (rng() % 2 == 0) {
      const std::size_t run = rng() % 4 == 0 ? 1 + rng() % 300 : rng() % 4;
      for (std::size_t k = 0; k < run; ++k) {
        s.push_back(static_cast<char>('a' + rng() % 26));
      }
    } else {
      s += kEscapes[rng() % std::size(kEscapes)];
    }
  }
  const bool defect = rng() % 4 == 0;
  if (defect) {
    s.insert(rng() % s.size() + 1,
             kDefects[rng() % std::size(kDefects)]);
  }
  if (!defect || rng() % 2 == 0) s.push_back('"');
  return s;
}

TEST(JsonMiniRuns, ValuesAndErrorTextsMatchTheByteLoop) {
  std::mt19937_64 rng(20261020);
  std::size_t errors = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string doc = random_literal(rng);
    SCOPED_TRACE(doc);
    std::string expect_error;
    const std::string expect = reference_string_document(doc, &expect_error);
    try {
      const jsonmini::Value v = jsonmini::parse(doc);
      ASSERT_TRUE(expect_error.empty()) << "accepted, expected "
                                        << expect_error;
      ASSERT_TRUE(v.is_string());
      ASSERT_EQ(v.string, expect);
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(e.what(), expect_error);
      ++errors;
    }
  }
  // Both outcomes were exercised in bulk.
  EXPECT_GT(errors, 1000u);
  EXPECT_LT(errors, 10000u);
}

TEST(JsonMiniRuns, EscapesAtRunEdgesInsideObjects) {
  const jsonmini::Value v = jsonmini::parse(
      "{\"\\\"k\": \"\\\\\", \"ab\\n\": [\"\\u0041bc\\t\", \"x\\\"\"],"
      " \"\": \"plain run\"}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("\"k")->string, "\\");
  ASSERT_EQ(v.find("ab\n")->array.size(), 2u);
  EXPECT_EQ(v.find("ab\n")->array[0].string, "Abc\t");
  EXPECT_EQ(v.find("ab\n")->array[1].string, "x\"");
  EXPECT_EQ(v.find("")->string, "plain run");
}

TEST(JsonMiniRuns, CorruptCorpusIsRejectedWithTheSameTexts) {
  const std::pair<const char*, const char*> kCorpus[] = {
      {"bad-escape.json", "json: invalid escape character at byte 13"},
      {"bare-nan.json", "json: invalid number at byte 6"},
      {"control-char.json",
       "json: unescaped control character in string at byte 11"},
      {"deep-nesting.json", "json: nesting too deep at byte 256"},
      {"leading-zero.json", "json: expected ',' or '}' in object at byte 7"},
      {"trailing-garbage.json",
       "json: trailing content after JSON value at byte 9"},
      {"truncated.json", "json: unexpected end of input at byte 13"},
      {"unterminated-string.json", "json: unterminated string at byte 19"},
  };
  for (const auto& [file, text] : kCorpus) {
    std::ifstream in(std::string(SYMCEX_GOLDEN_DIR) + "/corrupt/json/" + file,
                     std::ios::binary);
    ASSERT_TRUE(in) << file;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      (void)jsonmini::parse(buffer.str());
      ADD_FAILURE() << file << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), text) << file;
    }
  }
}

TEST(JsonMiniRuns, WriterOutputRoundTripsEveryByte) {
  // What the writer escapes the parser restores, for every byte value,
  // also when the string is long enough to span many runs.
  std::string s;
  for (int rep = 0; rep < 300; ++rep) s += every_byte();
  std::string doc;
  {
    diag::JsonWriter w(doc);
    w.begin_array();
    w.value(std::string_view(s));
    w.end_array();
  }
  const jsonmini::Value v = jsonmini::parse(doc);
  ASSERT_EQ(v.array.size(), 1u);
  EXPECT_EQ(v.array[0].string, s);
}

}  // namespace
}  // namespace symcex
