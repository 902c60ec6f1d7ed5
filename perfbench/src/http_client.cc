#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// Case-insensitive "content-length:" prefix test on one header line.
bool IsContentLength(const std::string& buffer, size_t begin, size_t end) {
  static constexpr char kName[] = "content-length:";
  const size_t n = sizeof(kName) - 1;
  if (end - begin <= n) return false;
  for (size_t i = 0; i < n; ++i) {
    char c = buffer[begin + i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != kName[i]) return false;
  }
  return true;
}

}  // namespace

bool KeepAliveClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = Loopback(port_);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  buffer_.clear();
  return true;
}

void KeepAliveClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool KeepAliveClient::SendAll(const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool KeepAliveClient::Fill() {
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

namespace {

std::string Request(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

}  // namespace

int KeepAliveClient::Get(const std::string& target, std::string* body) {
  const std::string request = Request(target);
  if (fd_ < 0 && !Connect()) return -1;
  if (!SendAll(request)) {
    Close();
    if (!Connect() || !SendAll(request)) return -1;
  }
  return Read(body);
}

bool KeepAliveClient::Pipeline(const std::vector<const std::string*>& targets,
                               std::vector<int>* statuses,
                               std::vector<std::string>* bodies) {
  std::string requests;
  for (const std::string* target : targets) requests += Request(*target);
  if (fd_ < 0 && !Connect()) return false;
  if (!SendAll(requests)) {
    Close();
    return false;
  }
  statuses->resize(targets.size());
  bodies->resize(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    (*statuses)[i] = Read(&(*bodies)[i]);
    if ((*statuses)[i] < 0) return false;
  }
  return true;
}

int KeepAliveClient::Read(std::string* body) {
  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) {
      Close();
      return -1;
    }
  }
  int status = -1;
  if (buffer_.compare(0, 5, "HTTP/") == 0) {
    const size_t sp = buffer_.find(' ');
    if (sp != std::string::npos && sp + 4 <= header_end) {
      status = std::atoi(buffer_.c_str() + sp + 1);
    }
  }
  size_t content_length = 0;
  for (size_t pos = buffer_.find("\r\n") + 2; pos < header_end;) {
    size_t eol = buffer_.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    if (IsContentLength(buffer_, pos, eol)) {
      content_length = std::strtoull(buffer_.c_str() + pos + 15, nullptr, 10);
    }
    pos = eol + 2;
  }
  const size_t total = header_end + 4 + content_length;
  while (buffer_.size() < total) {
    if (!Fill()) {
      Close();
      return -1;
    }
  }
  if (body != nullptr) body->assign(buffer_, header_end + 4, content_length);
  buffer_.erase(0, total);
  if (status < 100 || status > 599) {
    Close();
    return -1;
  }
  return status;
}

uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr = Loopback(0);
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

std::string UrlEncode(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                            c == '.' || c == '~';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

}  // namespace perfbench
