// Tests for full-page Web adaptation (§8: "we intend to incorporate
// adaptation for objects other than images in the Web application").

#include <gtest/gtest.h>

#include "src/core/tsop_codec.h"
#include "src/metrics/experiment.h"
#include "src/wardens/web_warden.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;
constexpr char kPageUrl[] = "http://origin/guide.html";

class WebPageTest : public ::testing::Test {
 protected:
  WebPageTest() : rig_(1, "odyssey") {
    // A local-guide page: 6 KB of markup plus three inline images.
    rig_.distillation_server().PublishPage(kPageUrl, 6.0 * kKb,
                                           {22.0 * kKb, 11.0 * kKb, 44.0 * kKb});
    app_ = rig_.client().RegisterApplication("browser");
    rig_.Replay(MakeConstant(kHighBandwidth, 10 * kMinute), /*prime=*/false);
  }

  std::string Path() { return std::string(kOdysseyRoot) + "web/page"; }

  WebPageInfo OpenPage() {
    WebPageInfo info;
    rig_.client().Tsop(app_, Path(), kWebOpenPage, kPageUrl,
                       [&](Status status, std::string out) {
                         ASSERT_TRUE(status.ok()) << status.ToString();
                         EXPECT_TRUE(UnpackStruct(out, &info));
                       });
    return info;
  }

  WebPageFetchReply FetchPage() {
    WebPageFetchReply reply;
    bool done = false;
    rig_.client().Tsop(app_, Path(), kWebFetchPage, "", [&](Status status, std::string out) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_TRUE(UnpackStruct(out, &reply));
      done = true;
    });
    const Time deadline = rig_.sim().now() + kMinute;
    while (!done && rig_.sim().now() < deadline) {
      rig_.sim().RunUntil(rig_.sim().now() + 10 * kMillisecond);
    }
    EXPECT_TRUE(done);
    return reply;
  }

  void SetLevel(int level) {
    rig_.client().Tsop(app_, Path(), kWebSetFidelity, PackStruct(WebSetFidelityRequest{level}),
                       [](Status, std::string) {});
  }

  ExperimentRig rig_;
  AppId app_ = 0;
};

TEST_F(WebPageTest, OpenReportsPerLevelTotals) {
  const WebPageInfo info = OpenPage();
  EXPECT_DOUBLE_EQ(info.html_bytes, 6.0 * kKb);
  EXPECT_EQ(info.image_count, 3);
  // Full quality: markup + all original image bytes.
  EXPECT_DOUBLE_EQ(info.level_total_bytes[0], (6.0 + 22.0 + 11.0 + 44.0) * kKb);
  // Lower levels strictly shrink, but never below the markup size.
  EXPECT_GT(info.level_total_bytes[0], info.level_total_bytes[1]);
  EXPECT_GT(info.level_total_bytes[1], info.level_total_bytes[2]);
  EXPECT_GT(info.level_total_bytes[2], info.level_total_bytes[3]);
  EXPECT_GT(info.level_total_bytes[3], info.html_bytes);
}

TEST_F(WebPageTest, MarkupNeverDegrades) {
  OpenPage();
  SetLevel(3);  // JPEG(5)
  const WebPageFetchReply reply = FetchPage();
  // The markup arrives in full even at the lowest image fidelity.
  EXPECT_DOUBLE_EQ(reply.html_bytes, 6.0 * kKb);
  EXPECT_DOUBLE_EQ(reply.fidelity, 0.05);
  EXPECT_LT(reply.image_bytes, 8.0 * kKb);  // three heavily distilled images
}

TEST_F(WebPageTest, FullQualityShipsOriginals) {
  OpenPage();
  const WebPageFetchReply reply = FetchPage();
  EXPECT_DOUBLE_EQ(reply.fidelity, 1.0);
  EXPECT_DOUBLE_EQ(reply.image_bytes, (22.0 + 11.0 + 44.0) * kKb);
}

TEST_F(WebPageTest, LowerFidelityFetchesFaster) {
  OpenPage();
  const Time full_start = rig_.sim().now();
  FetchPage();
  const Duration full_cost = rig_.sim().now() - full_start;
  SetLevel(3);
  const Time low_start = rig_.sim().now();
  FetchPage();
  const Duration low_cost = rig_.sim().now() - low_start;
  EXPECT_LT(low_cost, full_cost / 2);
}

TEST_F(WebPageTest, UnknownPageFails) {
  Status status;
  rig_.client().Tsop(app_, Path(), kWebOpenPage, "http://origin/missing.html",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(WebPageTest, FetchPageWithoutOpenFails) {
  Status status;
  rig_.client().Tsop(app_, Path(), kWebFetchPage, "",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(WebPageTest, ImageSessionIsNotAPageSession) {
  rig_.client().Tsop(app_, Path(), kWebOpen, kTestImageUrl, [](Status, std::string) {});
  Status status;
  rig_.client().Tsop(app_, Path(), kWebFetchPage, "",
                     [&](Status s, std::string) { status = s; });
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace odyssey
