// The distillation server (§5.2, Figure 5).
//
// Sits between the mobile client and origin Web servers: it fetches a
// requested object from the Web server, distills it to the requested
// fidelity level (JPEG compression of decreasing quality, after Fox et al.),
// and returns the result.  These steps are transparent to both the browser
// and the origin server.

#ifndef SRC_SERVERS_DISTILLATION_SERVER_H_
#define SRC_SERVERS_DISTILLATION_SERVER_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/servers/calibration.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace odyssey {

// The cellophane's four fidelity levels, best first (§6.2.2).
enum class WebFidelity {
  kFullQuality = 0,
  kJpeg50 = 1,
  kJpeg25 = 2,
  kJpeg5 = 3,
};

inline constexpr WebFidelity kAllWebFidelities[] = {
    WebFidelity::kFullQuality,
    WebFidelity::kJpeg50,
    WebFidelity::kJpeg25,
    WebFidelity::kJpeg5,
};

// The fidelity score the evaluation assigns this level.
double WebFidelityScore(WebFidelity level);

class DistillationServer {
 public:
  // The per-run session factor models run-to-run variation in the server's
  // environment (the paper's trials were measured on a live testbed).
  explicit DistillationServer(Rng* rng)
      : rng_(rng), session_factor_(rng->JitterFactor(0.08)) {}

  // Registers an image of |bytes| at |url| on the (modeled) origin server.
  void PublishImage(const std::string& url, double bytes);

  // Registers a full page: HTML markup plus inline images (§8: adaptation
  // for objects other than images).  Markup is never distilled — only
  // reliable, full-fidelity transfer is acceptable for it — while each
  // inline image distills per the requested level.
  void PublishPage(const std::string& url, double html_bytes, std::vector<double> image_bytes);

  struct DistillReply {
    double bytes = 0.0;       // distilled size to ship to the client
    Duration compute = 0;     // origin fetch + distillation time
    double fidelity = 0.0;    // fidelity score of the produced level
  };

  // Computes the size and server compute of serving |url| at |level|.
  Status Distill(const std::string& url, WebFidelity level, DistillReply* out);

  // Size the given level produces for an original of |original_bytes|.
  static double DistilledBytes(double original_bytes, WebFidelity level);

  struct PageReply {
    double html_bytes = 0.0;
    double image_bytes = 0.0;   // total across inline images, distilled
    int image_count = 0;
    Duration compute = 0;       // origin fetch + per-image distillation
    double fidelity = 0.0;      // the images' fidelity (markup never degrades)
  };

  // Computes the shipped size and server compute of serving the page at
  // |level|.
  Status DistillPage(const std::string& url, WebFidelity level, PageReply* out);

 private:
  struct Page {
    double html_bytes = 0.0;
    std::vector<double> image_bytes;
  };

  Rng* rng_;
  double session_factor_;
  std::map<std::string, double> images_;
  std::map<std::string, Page> pages_;
};

}  // namespace odyssey

#endif  // SRC_SERVERS_DISTILLATION_SERVER_H_
