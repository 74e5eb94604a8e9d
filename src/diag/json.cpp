#include "diag/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace symcex::diag {

namespace {

/// Bytes a JSON string cannot carry verbatim: '"', '\\' and the controls.
constexpr std::array<bool, 256> kNeedsEscape = [] {
  std::array<bool, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = true;
  t['"'] = true;
  t['\\'] = true;
  return t;
}();

void append_escape(std::string& out, char c) {
  switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\t':
      out += "\\t";
      break;
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      const auto u = static_cast<unsigned char>(c);
      const char esc[6] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
      out.append(esc, sizeof esc);
    }
  }
}

/// Escape the body of a string literal (no quotes) onto `out`, copying
/// each run of verbatim bytes with one append.
void append_escaped_body(std::string& out, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    const char* run = p;
    while (p != end && !kNeedsEscape[static_cast<unsigned char>(*p)]) ++p;
    out.append(run, static_cast<std::size_t>(p - run));
    if (p == end) break;
    append_escape(out, *p++);
  }
}

/// json_number_token into a caller buffer (at least 40 bytes); returns the
/// token length.
std::size_t format_double(double v, char* buf) {
  // JSON has no non-finite tokens: clamp infinities to the largest finite
  // double (the same saturation sat_count applies) and NaN to 0.
  std::string_view fixed;
  if (std::isnan(v)) fixed = "0";
  if (std::isinf(v)) {
    fixed = v > 0 ? "1.7976931348623157e308" : "-1.7976931348623157e308";
  }
  if (!fixed.empty()) {
    fixed.copy(buf, fixed.size());
    return fixed.size();
  }
  const int n = std::snprintf(buf, 40, "%.17g", v);
  // snprintf honours the global C locale; normalize a decimal comma so the
  // token stays valid JSON under e.g. LC_NUMERIC=de_DE.
  for (int i = 0; i < n; ++i) {
    if (buf[i] == ',') buf[i] = '.';
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

void write_json_string(std::ostream& os, std::string_view s) {
  std::string token = "\"";
  append_escaped_body(token, s);
  token.push_back('"');
  os << token;
}

std::string json_number_token(double v) {
  char buf[40];
  return std::string(buf, format_double(v, buf));
}

void write_json_double(std::ostream& os, double v) {
  char buf[40];
  os.write(buf, static_cast<std::streamsize>(format_double(v, buf)));
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

JsonWriter::JsonWriter(std::ostream& os) : os_(&os), out_(buffer_) {}

JsonWriter::JsonWriter(std::string& out) : out_(out) {}

JsonWriter::~JsonWriter() {
  if (os_ == nullptr) return;
  try {
    flush();
  } catch (...) {
    // Only a stream with exceptions() set throws here, and it has set its
    // failure bit first: the caller learns of the lost write from it.
  }
}

void JsonWriter::flush() {
  os_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

void JsonWriter::separate() {
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_ += ", ";
    need_comma_.back() = true;
  }
}

void JsonWriter::string_token(std::string_view s) {
  out_.push_back('"');
  // A stream-backed writer escapes a long string a chunk at a time, so a
  // megabyte value never sits in the buffer whole.  Escapes are one input
  // byte each, so any split point is safe.
  while (os_ != nullptr && s.size() > kFlushBytes) {
    append_escaped_body(out_, s.substr(0, kFlushBytes));
    s.remove_prefix(kFlushBytes);
    if (out_.size() >= kFlushBytes) flush();
  }
  append_escaped_body(out_, s);
  out_.push_back('"');
}

void JsonWriter::begin_object() {
  separate();
  out_.push_back('{');
  need_comma_.push_back(false);
}

void JsonWriter::end_object() {
  out_.push_back('}');
  need_comma_.pop_back();
  value_done();
}

void JsonWriter::begin_array() {
  separate();
  out_.push_back('[');
  need_comma_.push_back(false);
}

void JsonWriter::end_array() {
  out_.push_back(']');
  need_comma_.pop_back();
  value_done();
}

void JsonWriter::key(std::string_view k) {
  separate();
  string_token(k);
  out_ += ": ";
  // The matching value must not emit another comma.
  if (!need_comma_.empty()) need_comma_.back() = false;
}

void JsonWriter::value(std::string_view s) {
  separate();
  string_token(s);
  value_done();
}

void JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  value_done();
}

// std::to_chars, not operator<<: a stream may carry std::hex or a grouping
// locale, either of which would corrupt the token.
void JsonWriter::value(std::int64_t i) {
  separate();
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, i);
  out_.append(buf, r.ptr);
  value_done();
}

void JsonWriter::value(std::uint64_t u) {
  separate();
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, u);
  out_.append(buf, r.ptr);
  value_done();
}

void JsonWriter::value(double d) {
  separate();
  char buf[40];
  out_.append(buf, format_double(d, buf));
  value_done();
}

void JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  value_done();
}

}  // namespace symcex::diag
