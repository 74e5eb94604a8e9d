// SymCeX -- shared JSON emission helpers.
//
// One tiny, dependency-free JSON writer used by every subsystem that
// exports JSON (the diag metrics registry, the certify certificate dump,
// the evidence bundle emitter and the serve wire protocol).  Two design
// constraints drive it:
//
//   * every byte of output is deterministic -- no locale, stream-state or
//     platform float-formatting leakage -- so exports can be compared
//     bit-for-bit across runs (the evidence bundle schema promises this);
//   * every emitted document is strictly valid JSON: strings are fully
//     escaped and doubles are never rendered as the bare `inf` / `nan`
//     tokens C++ streams produce for non-finite values (which are not
//     JSON).  Non-finite doubles are clamped: +/-infinity to +/-DBL_MAX
//     and NaN to 0, mirroring the saturation convention of
//     bdd::Bdd::sat_count.
//
// The writer is a plain comma-placement state machine that appends into a
// std::string; the caller controls key order (emit keys in the order the
// schema documents, sorted where the schema says sorted).

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace symcex::diag {

/// Write `s` as a JSON string literal (quotes included): `"` and `\`
/// escaped, control characters emitted as \n, \t or \u00XX.
void write_json_string(std::ostream& os, std::string_view s);

/// Render `v` as a JSON-legal number token, independent of locale and
/// stream state: %.17g formatting (shortest round-trippable form is not
/// required, 17 significant digits always round-trips), any locale decimal
/// comma normalized to '.', +/-infinity clamped to +/-1.7976931348623157e308
/// and NaN to 0.
[[nodiscard]] std::string json_number_token(double v);

/// write os << json_number_token(v).
void write_json_double(std::ostream& os, double v);

/// Minimal structural JSON writer: tracks whether a separator comma is due
/// at each nesting depth.  Usage:
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("version"); w.value(1);
///   w.key("names");   w.begin_array();
///   w.value("a");     w.value("b");
///   w.end_array();
///   w.end_object();
///
/// The writer never reorders or sorts; emit keys in schema order.
///
/// Output is built in a std::string.  Constructed on a string, the writer
/// appends to it directly -- the caller's string is the document, with no
/// intermediate copy.  Constructed on a stream, the writer buffers and
/// hands the stream its bytes when the outermost value closes, and in
/// chunks of about kFlushBytes while a large value is still open, so the
/// buffer never holds a whole large document.  A stream write between two
/// top-level values (a trailing newline, a second document) therefore
/// lands in order.  The destructor flushes whatever an unfinished
/// document left buffered.
class JsonWriter {
 public:
  /// Buffer size at which a stream-backed writer hands bytes over before
  /// the outermost value has closed.
  static constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

  explicit JsonWriter(std::ostream& os);
  explicit JsonWriter(std::string& out);
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object key (must be inside an object, before the matching value).
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(std::int64_t i);
  void value(std::uint64_t u);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(double d);

  /// Emit a pre-rendered JSON value verbatim.  The caller vouches that
  /// `json` is one complete, valid JSON value.
  void raw(std::string_view json);

  /// key(k) followed by value(v), for one-liner members.
  template <typename T>
  void member(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

 private:
  void separate();  // emit "," when a sibling was already written
  void string_token(std::string_view s);
  /// After each value: a stream-backed writer flushes when the outermost
  /// value has closed or the buffer reached kFlushBytes.
  void value_done() {
    if (os_ != nullptr && (need_comma_.empty() || out_.size() >= kFlushBytes)) {
      flush();
    }
  }
  void flush();

  std::ostream* os_ = nullptr;  // stream mode target; null in string mode
  std::string buffer_;          // stream mode buffer
  std::string& out_;            // buffer_ (stream mode) or the caller's string
  std::vector<bool> need_comma_;  // one flag per open container
};

}  // namespace symcex::diag
