// SymCeX -- serve: the blocking wire-protocol client.

#include "serve/serve.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "json_mini.hpp"

namespace symcex::serve {

namespace {

[[nodiscard]] std::uint64_t stat_count(const jsonmini::Value& stats,
                                       std::string_view key) {
  const jsonmini::Value* m = stats.find(key);
  if (m == nullptr || !m->is_number() || m->number < 0) return 0;
  return static_cast<std::uint64_t>(m->number);
}

}  // namespace

Client::~Client() { close(); }

void Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("client: socket path too long: " + socket_path);
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("client: socket(): ") +
                             std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string what = std::strerror(errno);
    close();
    throw std::runtime_error("client: connect(" + socket_path + "): " + what);
  }
  hello_ = read_line();
  try {
    const jsonmini::Value v = jsonmini::parse(hello_);
    const jsonmini::Value* proto = v.find("protocol");
    if (proto == nullptr || !proto->is_number() ||
        static_cast<int>(proto->number) != kProtocolVersion) {
      throw std::runtime_error("protocol mismatch");
    }
  } catch (const std::runtime_error& e) {
    close();
    throw std::runtime_error(std::string("client: bad hello frame: ") +
                             e.what());
  }
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  hello_.clear();
  inbuf_.clear();
}

std::string Client::roundtrip(const std::string& request_json) {
  write_all(request_json + "\n");
  return read_line();
}

std::string Client::read_line() {
  std::string line;
  for (;;) {
    if (inbuf_.take(line)) return line;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("client: connection closed");
    inbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Client::write_all(const std::string& data) {
  if (fd_ < 0) throw std::runtime_error("client: not connected");
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("client: send(): ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

bool Client::ping() {
  const jsonmini::Value v = jsonmini::parse(roundtrip("{\"op\":\"ping\"}"));
  const jsonmini::Value* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->boolean;
}

std::string Client::stats_json() { return roundtrip("{\"op\":\"stats\"}"); }

ServeStats Client::stats() {
  const jsonmini::Value v = jsonmini::parse(stats_json());
  const jsonmini::Value* stats = v.find("stats");
  if (stats == nullptr || !stats->is_object()) {
    throw std::runtime_error("client: malformed stats response");
  }
  ServeStats s;
  s.jobs = stat_count(*stats, "jobs");
  s.hits = stat_count(*stats, "hits");
  s.misses = stat_count(*stats, "misses");
  s.evictions = stat_count(*stats, "evictions");
  s.poisoned = stat_count(*stats, "poisoned");
  s.overload_rejects = stat_count(*stats, "overload_rejects");
  s.unknown_verdicts = stat_count(*stats, "unknown_verdicts");
  s.sessions = stat_count(*stats, "sessions");
  s.session_evictions = stat_count(*stats, "session_evictions");
  s.queue_depth = stat_count(*stats, "queue_depth");
  return s;
}

void Client::shutdown_server() {
  (void)roundtrip("{\"op\":\"shutdown\"}");
}

CheckResult Client::check(const CheckRequest& request) {
  const std::string response = roundtrip(format_check_request(request));
  return parse_check_result(jsonmini::parse(response));
}

std::vector<CheckResult> Client::batch(
    const std::vector<CheckRequest>& requests) {
  const std::string response = roundtrip(format_batch_request(requests));
  const jsonmini::Value v = jsonmini::parse(response);
  const jsonmini::Value* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->boolean) {
    throw std::runtime_error("client: batch request failed: " + response);
  }
  const jsonmini::Value* results = v.find("results");
  if (results == nullptr || !results->is_array()) {
    throw std::runtime_error("client: malformed batch response");
  }
  std::vector<CheckResult> out;
  out.reserve(results->array.size());
  for (const jsonmini::Value& r : results->array) {
    out.push_back(parse_check_result(r));
  }
  return out;
}

}  // namespace symcex::serve
