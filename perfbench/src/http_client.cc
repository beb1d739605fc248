#include "http_client.h"

#include <poll.h>

#include <cstdlib>

namespace perfbench {

namespace {

constexpr int kPollTimeoutMs = 30'000;

}  // namespace

ClosedLoopClient::ClosedLoopClient(uint16_t port, size_t connections) {
  conns_.resize(connections);
  for (Conn& c : conns_) {
    auto socket = banks::server::net::Socket::ConnectLoopback(port);
    if (!socket.ok()) {
      ok_ = false;
      return;
    }
    c.socket = std::move(socket).value();
  }
}

bool ClosedLoopClient::Advance(Conn* c, HttpExchange* ex,
                               Clock::time_point now) {
  for (;;) {
    switch (c->state) {
      case Conn::State::kHead: {
        size_t end = c->carry.find("\r\n\r\n");
        if (end == std::string::npos) return false;
        const std::string head = c->carry.substr(0, end);
        c->carry.erase(0, end + 4);
        ex->ttfb_ms = MsBetween(c->sent, now);
        size_t sp = head.find(' ');
        ex->status = sp == std::string::npos ? 0 : std::atoi(head.c_str() + sp + 1);
        if (head.find("Transfer-Encoding: chunked") != std::string::npos) {
          c->state = Conn::State::kChunkSize;
        } else {
          size_t cl = head.find("Content-Length: ");
          c->remaining = cl == std::string::npos
                             ? 0
                             : std::strtoul(head.c_str() + cl + 16, nullptr, 10);
          c->state = Conn::State::kFixed;
        }
        break;
      }
      case Conn::State::kFixed:
        if (c->carry.size() < c->remaining) return false;
        ex->body = c->carry.substr(0, c->remaining);
        c->carry.erase(0, c->remaining);
        ex->ttk_ms = MsBetween(c->sent, now);
        c->state = Conn::State::kHead;
        return true;
      case Conn::State::kChunkSize: {
        size_t end = c->carry.find("\r\n");
        if (end == std::string::npos) return false;
        c->remaining = std::strtoul(c->carry.c_str(), nullptr, 16);
        c->carry.erase(0, end + 2);
        c->state = c->remaining == 0 ? Conn::State::kChunkEnd
                                     : Conn::State::kChunkData;
        break;
      }
      case Conn::State::kChunkData: {
        if (c->carry.size() < c->remaining + 2) return false;
        ex->body.append(c->carry, 0, c->remaining);
        c->carry.erase(0, c->remaining + 2);
        if (ex->ttfa_ms < 0.0 && ex->body.find('\n') != std::string::npos &&
            ex->body.compare(0, 8, "{\"done\":") != 0) {
          ex->ttfa_ms = MsBetween(c->sent, now);
        }
        c->state = Conn::State::kChunkSize;
        break;
      }
      case Conn::State::kChunkEnd:
        if (c->carry.size() < 2) return false;
        c->carry.erase(0, 2);
        ex->ttk_ms = MsBetween(c->sent, now);
        c->state = Conn::State::kHead;
        return true;
    }
  }
}

std::vector<HttpExchange> ClosedLoopClient::Run(
    const std::vector<std::string>& bodies) {
  std::vector<HttpExchange> out(bodies.size());
  size_t next = 0;
  size_t done = 0;
  auto send = [&](Conn* c) {
    const std::string& body = bodies[next];
    std::string request =
        "POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    c->request = next++;
    c->busy = true;
    c->state = Conn::State::kHead;
    c->sent = Clock::now();
    if (!c->socket.SendAll(request)) {
      c->busy = false;
      ++done;  // status stays 0: a transport failure
    }
  };
  for (Conn& c : conns_) {
    if (next < bodies.size()) send(&c);
  }
  std::vector<pollfd> fds(conns_.size());
  char buf[16384];
  while (done < bodies.size()) {
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = {conns_[i].busy ? conns_[i].socket.fd() : -1, POLLIN, 0};
    }
    int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready <= 0) break;  // a stalled server: the rest stay status 0
    const Clock::time_point now = Clock::now();
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (!c.busy || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      long n = c.socket.Recv(buf, sizeof(buf));
      HttpExchange& ex = out[c.request];
      if (n <= 0) {
        ex.status = 0;
        c.busy = false;
        ++done;
        continue;
      }
      ex.wire_bytes += static_cast<size_t>(n);
      c.carry.append(buf, static_cast<size_t>(n));
      if (Advance(&c, &ex, now)) {
        c.busy = false;
        ++done;
        if (next < bodies.size()) send(&c);
      }
    }
  }
  return out;
}

}  // namespace perfbench
