#include "obs/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/status.hpp"
#include "util/env.hpp"

namespace afl::obs {
namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

void set_io_timeout(int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

bool HttpServer::start(std::uint16_t port) {
  if (running()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "[WARN] obs: http socket() failed: %s\n", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // monitoring is local-only
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    std::fprintf(stderr, "[WARN] obs: http bind/listen on port %u failed: %s\n",
                 port, std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  if (::pipe(wake_fds_) != 0) {
    std::fprintf(stderr, "[WARN] obs: http self-pipe failed: %s\n", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const char byte = 'q';
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  listen_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
  port_ = 0;
}

void HttpServer::serve_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop() poked the self-pipe
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_connection(client);
    ::close(client);
  }
}

void HttpServer::handle_connection(int fd) {
  set_io_timeout(fd);
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<std::size_t>(got));
  }

  // Request line: METHOD SP target SP version.
  Response resp;
  bool head_only = false;
  const std::size_t line_end = request.find("\r\n");
  const std::size_t sp1 = request.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : request.find(' ', sp1 + 1);
  if (line_end == std::string::npos || sp1 == std::string::npos ||
      sp2 == std::string::npos || sp2 > line_end) {
    resp = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    const std::string method = request.substr(0, sp1);
    std::string target = request.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = target.find('?');
    if (query != std::string::npos) target.resize(query);
    if (method != "GET" && method != "HEAD") {
      resp = {405, "text/plain; charset=utf-8", "method not allowed\n"};
    } else {
      const auto it = handlers_.find(target);
      if (it == handlers_.end()) {
        resp = {404, "text/plain; charset=utf-8", "not found\n"};
      } else {
        resp = it->second();
      }
    }
    head_only = method == "HEAD";
  }

  // HEAD advertises the length a GET would have returned, without the body.
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + ' ' +
                     status_text(resp.status) + "\r\nContent-Type: " +
                     resp.content_type + "\r\nContent-Length: " +
                     std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head.data(), head.size()) && !head_only) {
    send_all(fd, resp.body.data(), resp.body.size());
  }
}

namespace {

HttpServer* g_default_server = nullptr;

void stop_default_server() {
  if (g_default_server != nullptr) g_default_server->stop();
}

}  // namespace

bool ensure_default_http_server() {
  static const bool active = [] {
    if (env_or("AFL_HTTP_PORT", std::string()).empty()) return false;
    const int port = env_or("AFL_HTTP_PORT", 0);
    if (port < 0 || port > 65535) {
      std::fprintf(stderr, "[WARN] obs: AFL_HTTP_PORT=%d out of range; not serving\n",
                   port);
      return false;
    }
    auto* server = new HttpServer();  // leaked: lives until atexit stop
    server->handle("/metrics", [] {
      return HttpServer::Response{200, "text/plain; version=0.0.4; charset=utf-8",
                                  render_prometheus(metrics())};
    });
    server->handle("/metrics.json", [] {
      return HttpServer::Response{200, "application/json", render_json(metrics())};
    });
    server->handle("/healthz", [] {
      return HttpServer::Response{200, "text/plain; charset=utf-8", "ok\n"};
    });
    server->handle("/status", [] {
      return HttpServer::Response{200, "application/json",
                                  render_status_json(run_status().read())};
    });
    if (!server->start(static_cast<std::uint16_t>(port))) {
      delete server;
      return false;
    }
    g_default_server = server;
    std::atexit(stop_default_server);
    std::fprintf(stderr, "[INFO] obs: monitoring endpoint on http://127.0.0.1:%u "
                 "(/metrics /metrics.json /healthz /status)\n",
                 server->port());
    return true;
  }();
  return active;
}

std::uint16_t default_http_port() {
  return g_default_server != nullptr ? g_default_server->port() : 0;
}

}  // namespace afl::obs
