// Unit tests for the common substrate: Status, byte codecs, math helpers,
// deterministic random.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/math.h"
#include "common/random.h"
#include "common/status.h"

namespace eos {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("object 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: object 7");
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NoSpace("x").IsNoSpace());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseValue(int x, int* out) {
  EOS_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UseValue(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseValue(-1, &out).IsInvalidArgument());
}

TEST(BytesTest, CodecRoundTrip) {
  uint8_t buf[8];
  EncodeU16(buf, 0xBEEF);
  EXPECT_EQ(DecodeU16(buf), 0xBEEF);
  EncodeU32(buf, 0xDEADBEEF);
  EXPECT_EQ(DecodeU32(buf), 0xDEADBEEFu);
  EncodeU64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeU64(buf), 0x0123456789ABCDEFull);
}

TEST(BytesTest, ByteViewSliceAndEquality) {
  std::string s = "hello world";
  ByteView v(s);
  EXPECT_EQ(v.size(), 11u);
  EXPECT_EQ(v.Slice(6, 5).ToString(), "world");
  EXPECT_TRUE(v.Slice(0, 5) == ByteView("hello", 5));
  EXPECT_FALSE(v.Slice(0, 5) == ByteView("world", 5));
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 100), 0u);
  EXPECT_EQ(CeilDiv(1, 100), 1u);
  EXPECT_EQ(CeilDiv(100, 100), 1u);
  EXPECT_EQ(CeilDiv(101, 100), 2u);
  EXPECT_EQ(CeilDiv(1820, 100), 19u);  // the paper's example object
}

TEST(MathTest, Logs) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(4096), 12u);
  EXPECT_EQ(FloorLog2(100), 6u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(11), 4u);  // Figure 4: 11 pages need a 16-segment
  EXPECT_EQ(NextPowerOfTwo(11), 16u);
  EXPECT_EQ(NextPowerOfTwo(16), 16u);
}

TEST(MathTest, LargestAlignedSize) {
  EXPECT_EQ(LargestAlignedSize(3), 1u);
  EXPECT_EQ(LargestAlignedSize(4), 4u);
  EXPECT_EQ(LargestAlignedSize(12), 4u);
  EXPECT_EQ(LargestAlignedSize(64), 64u);
}

TEST(RandomTest, DeterministicAndBounded) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Random r(9);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Range(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
  }
}

}  // namespace
}  // namespace eos
