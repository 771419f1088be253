// RAII device-memory buffer with cudaMalloc semantics. Backed by host memory
// (the simulator runs on the CPU) but accounted against the device's
// global-memory capacity, so exceeding the card aborts exactly like a real
// cudaMalloc failure. Like cudaMalloc, construction leaves the contents
// uninitialized: every user writes an element before reading it, or calls
// zero() (the cudaMemset, with its modeled cost) first. Untouched pages
// also stay out of the host's resident set.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "simt/device.h"

namespace gm::simt {

template <typename T>
class Buffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "device buffers hold plain data");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  Buffer(Device& dev, std::size_t count) : dev_(&dev) {
    // Account against device capacity *before* touching host memory, so an
    // oversized request fails with DeviceOutOfMemory instead of bad_alloc.
    dev_->allocate(count * sizeof(T));
    try {
      data_.reset(static_cast<T*>(::operator new(count * sizeof(T))));
    } catch (...) {
      dev_->release(count * sizeof(T));
      throw;
    }
    size_ = count;
  }
  ~Buffer() {
    if (dev_ != nullptr) dev_->release(bytes());
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept
      : dev_(std::exchange(other.dev_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        data_(std::move(other.data_)) {}
  Buffer& operator=(Buffer&&) = delete;

  std::size_t size() const noexcept { return size_; }
  std::size_t bytes() const noexcept { return size_ * sizeof(T); }

  std::span<T> span() noexcept { return {data_.get(), size_}; }
  std::span<const T> span() const noexcept { return {data_.get(), size_}; }
  T* data() noexcept { return data_.get(); }
  const T* data() const noexcept { return data_.get(); }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  /// cudaMemset equivalent: zero-fill with modeled cost.
  void zero() {
    std::memset(data_.get(), 0, bytes());
    dev_->account_memset(bytes());
  }

  /// cudaMemcpy H->D with modeled PCIe cost.
  void upload(std::span<const T> host) {
    std::memcpy(data_.get(), host.data(),
                std::min(bytes(), host.size() * sizeof(T)));
    dev_->account_copy(host.size() * sizeof(T), CopyDir::kH2D);
  }

  /// cudaMemcpy D->H with modeled PCIe cost.
  std::vector<T> download(std::size_t count) const {
    count = std::min(count, size_);
    dev_->account_copy(count * sizeof(T), CopyDir::kD2H);
    return std::vector<T>(data_.get(), data_.get() + count);
  }

 private:
  struct FreeStorage {
    void operator()(T* p) const noexcept { ::operator delete(p); }
  };

  Device* dev_;
  std::size_t size_ = 0;
  std::unique_ptr<T[], FreeStorage> data_;
};

}  // namespace gm::simt
