#include "nn/checkpoint.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace mdgan::nn {
namespace {

constexpr std::uint32_t kMagic = 0x4d44474eu;  // "MDGN"
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

void save_checkpoint(const std::string& path, Sequential& model) {
  ByteBuffer buf;
  buf.write_pod(kMagic);
  buf.write_pod(kVersion);
  auto params = model.params();
  buf.write_pod<std::uint64_t>(params.size());
  for (Tensor* p : params) {
    buf.write_pod<std::uint64_t>(p->rank());
    for (std::size_t i = 0; i < p->rank(); ++i) {
      buf.write_pod<std::uint64_t>(p->dim(i));
    }
    buf.write_floats(p->data(), p->numel());
  }

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("save_checkpoint: cannot open " + path);
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    throw std::runtime_error("save_checkpoint: short write to " + path);
  }
}

void load_checkpoint(const std::string& path, Sequential& model) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("load_checkpoint: cannot open " + path);
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  std::fseek(f.get(), 0, SEEK_SET);
  if (size < 0) throw std::runtime_error("load_checkpoint: ftell failed");
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(size));
  if (std::fread(raw.data(), 1, raw.size(), f.get()) != raw.size()) {
    throw std::runtime_error("load_checkpoint: short read from " + path);
  }

  ByteBuffer buf = ByteBuffer::adopt(std::move(raw));

  if (buf.read_pod<std::uint32_t>() != kMagic) {
    throw std::runtime_error("load_checkpoint: bad magic in " + path);
  }
  if (buf.read_pod<std::uint32_t>() != kVersion) {
    throw std::runtime_error("load_checkpoint: unsupported version in " +
                             path);
  }
  auto params = model.params();
  const auto count = buf.read_pod<std::uint64_t>();
  if (count != params.size()) {
    throw std::runtime_error(
        "load_checkpoint: parameter tensor count mismatch (" +
        std::to_string(count) + " in file, " +
        std::to_string(params.size()) + " in model)");
  }
  for (Tensor* p : params) {
    const auto rank = buf.read_pod<std::uint64_t>();
    Shape shape(rank);
    for (auto& d : shape) d = buf.read_pod<std::uint64_t>();
    if (shape != p->shape()) {
      throw std::runtime_error("load_checkpoint: tensor shape mismatch: " +
                               shape_to_string(shape) + " in file vs " +
                               shape_to_string(p->shape()) + " in model");
    }
    if (buf.read_pod<std::uint64_t>() != p->numel()) {
      throw std::runtime_error("load_checkpoint: tensor length mismatch");
    }
    buf.read_floats_into(p->data(), p->numel());
  }
}

}  // namespace mdgan::nn
