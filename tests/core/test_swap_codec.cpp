// Discriminator swap codec (core::encode_disc_swap / adopt_disc_swap):
// θ is streamed straight from the parameter tensors onto the wire and
// decoded in place into the adopter, on the historical wire bytes, and a
// warmed-up in-process swap reuses each discriminator's wire buffer
// instead of allocating θ-sized temporaries.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/rng.hpp"
#include "core/md_gan.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "gan/arch.hpp"

namespace mdgan::core {
namespace {

nn::Sequential mlp_disc(std::uint64_t seed) {
  Rng rng(seed);
  return gan::build_discriminator(gan::make_arch(gan::ArchKind::kMlpMnist),
                                  rng);
}

// Bitwise equality of two models' parameters (NaN-safe, -0 != +0).
bool same_bits(nn::Sequential& a, nn::Sequential& b) {
  const auto x = a.flatten_parameters();
  const auto y = b.flatten_parameters();
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

ByteBuffer legacy_encoding(std::uint32_t id, nn::Sequential& net) {
  const auto params = net.flatten_parameters();
  ByteBuffer buf;
  buf.write_pod<std::uint32_t>(id);
  buf.write_floats(params.data(), params.size());
  return buf;
}

TEST(SwapCodec, AdoptReproducesTheSenderBitForBit) {
  auto sender = mlp_disc(1);
  auto adopter = mlp_disc(2);
  ASSERT_FALSE(same_bits(sender, adopter));
  ByteBuffer payload = encode_disc_swap(3, sender);
  adopt_disc_swap(payload, 3, adopter);
  EXPECT_TRUE(same_bits(sender, adopter));
  EXPECT_EQ(payload.remaining(), 0u);
}

TEST(SwapCodec, BytesEqualTheLegacyEncoding) {
  auto net = mlp_disc(4);
  const ByteBuffer want = legacy_encoding(7, net);
  const ByteBuffer fresh = encode_disc_swap(7, net);
  ASSERT_EQ(fresh.size(), want.size());
  EXPECT_EQ(std::memcmp(fresh.data(), want.data(), want.size()), 0);
  // A recycled buffer (larger, dirty) encodes the same bytes.
  std::vector<std::uint8_t> dirty(want.size() + 100, 0xab);
  const ByteBuffer reused = encode_disc_swap(7, net, std::move(dirty));
  ASSERT_EQ(reused.size(), want.size());
  EXPECT_EQ(std::memcmp(reused.data(), want.data(), want.size()), 0);
}

// Each malformed payload must throw before any parameter is written.
void expect_rejected(ByteBuffer payload, std::uint32_t id) {
  auto target = mlp_disc(9);
  const auto before = target.flatten_parameters();
  EXPECT_THROW(adopt_disc_swap(payload, id, target), std::runtime_error);
  const auto after = target.flatten_parameters();
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(SwapCodec, ShortPayloadIsRejectedUntouched) {
  auto net = mlp_disc(5);
  const ByteBuffer good = encode_disc_swap(1, net);
  expect_rejected(ByteBuffer::wrap(good.data(), good.size() - 1), 1);
  expect_rejected(ByteBuffer::wrap(good.data(), 6), 1);  // inside header
}

TEST(SwapCodec, LongPayloadIsRejectedUntouched) {
  auto net = mlp_disc(5);
  ByteBuffer payload = encode_disc_swap(1, net);
  payload.write_pod<float>(0.f);
  expect_rejected(std::move(payload), 1);
}

TEST(SwapCodec, WrongParameterCountIsRejectedUntouched) {
  // Self-consistent payload (n matches the bytes) for one float too few.
  auto net = mlp_disc(5);
  const auto params = net.flatten_parameters();
  ByteBuffer payload;
  payload.write_pod<std::uint32_t>(1);
  payload.write_floats(params.data(), params.size() - 1);
  expect_rejected(std::move(payload), 1);
}

TEST(SwapCodec, WrongDiscriminatorIdIsRejectedUntouched) {
  auto net = mlp_disc(5);
  expect_rejected(encode_disc_swap(2, net), 1);
}

// Heap bytes one warm round allocates, W = 4 paper-count MLP
// discriminators with shard = b so that, with the swap on, every round
// swaps all four. Serial workers keep the pool out of the count.
struct RoundAllocs {
  std::uint64_t bytes = 0;
  std::uint64_t w2w_bytes = 0;
  std::uint64_t theta_bytes = 0;
};

RoundAllocs warm_round_allocs(bool swap_enabled) {
  const std::size_t n = 4;
  const std::size_t b = 2;
  dist::SimNetwork net(n);
  auto full = data::make_synthetic_digits(n * b, 3);
  Rng rng(3);
  MdGanConfig cfg;
  cfg.hp.batch = b;
  cfg.hp.disc_steps = 1;
  cfg.k = 1;
  cfg.epochs_per_swap = 1;
  cfg.swap_enabled = swap_enabled;
  cfg.parallel_workers = false;
  MdGan md(gan::make_arch(gan::ArchKind::kMlpMnist), cfg,
           data::split_iid(full, n, rng), 5, net);
  EXPECT_EQ(md.swap_period(), 1);
  md.train(2);  // warm-up: the first swap sizes every wire buffer

  const auto w2w = [&] {
    return net.totals(dist::LinkKind::kWorkerToWorker).bytes;
  };
  const std::uint64_t w2w_before = w2w();
  const AllocStats before = alloc_stats();
  md.train_from(3, 3);  // one round
  RoundAllocs out;
  out.bytes = (alloc_stats() - before).bytes;
  out.w2w_bytes = w2w() - w2w_before;
  out.theta_bytes = md.discriminator_of(1).num_parameters() * sizeof(float);
  return out;
}

TEST(SwapCodec, WarmInProcessSwapAllocatesNoTheta) {
  const RoundAllocs with = warm_round_allocs(true);
  const RoundAllocs without = warm_round_allocs(false);
  // The swap did run: four θ payloads crossed W->W.
  EXPECT_EQ(with.w2w_bytes, 4 * (with.theta_bytes + 12));
  EXPECT_EQ(without.w2w_bytes, 0u);
  // What the swap adds to the round is bookkeeping only (permutation,
  // mailbox entries, parameter pointer lists), far under one θ; the
  // legacy codec allocated three θ-sized buffers per discriminator.
  const std::int64_t swap_bytes = static_cast<std::int64_t>(with.bytes) -
                                  static_cast<std::int64_t>(without.bytes);
  EXPECT_LT(swap_bytes, 16 * 1024) << "theta=" << with.theta_bytes;
}

}  // namespace
}  // namespace mdgan::core
