#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Blocking keep-alive HTTP/1.1 GET client over loopback: one persistent
// connection, reconnecting once if the server closed it.
class KeepAliveClient {
 public:
  explicit KeepAliveClient(uint16_t port) : port_(port) {}
  ~KeepAliveClient() { Close(); }
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  // Returns the HTTP status (body in *body), or -1 on a transport error.
  int Get(const std::string& target, std::string* body);
  // Sends every request in one write, then reads the responses in order
  // (HTTP/1.1 pipelining). False on a transport error.
  bool Pipeline(const std::vector<const std::string*>& targets,
                std::vector<int>* statuses, std::vector<std::string>* bodies);
  void Close();

 private:
  bool Connect();
  int Read(std::string* body);
  bool SendAll(const std::string& data);
  bool Fill();

  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

// A loopback port that was free a moment ago.
uint16_t PickFreePort();

// Percent-encodes a query-string value.
std::string UrlEncode(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
