/**
 * @file
 * Image-processing benchmark accelerators: grayscale conversion
 * (GRS) and the line-buffered 3x3 window filters (GAU = Gaussian
 * blur, SBL = Sobel).
 */

#ifndef OPTIMUS_ACCEL_IMAGE_ACCELS_HH
#define OPTIMUS_ACCEL_IMAGE_ACCELS_HH

#include <array>
#include <string>
#include <vector>

#include "accel/algo/image.hh"
#include "accel/streaming_accelerator.hh"

namespace optimus::accel {

/**
 * RGBX-to-grayscale: streams a W*H RGBX image (4 bytes/pixel) from
 * SRC and writes the 1 byte/pixel luma image to DST. Output bytes
 * accumulate into full cache lines before being written.
 */
class GrsAccel : public StreamingAccelerator
{
  public:
    GrsAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    void streamBegin() override;
    void consumeLine(std::uint64_t offset, const std::uint8_t *data,
                     std::uint32_t bytes) override;
    void streamEnd() override;
    void saveTransformState(StateWriter &w) const override;
    void restoreTransformState(StateReader &r) override;
    std::uint64_t transformStateCapacity() const override
    {
        return sim::kCacheLineBytes + 16;
    }

  private:
    void flushOutLine();

    std::array<std::uint8_t, sim::kCacheLineBytes> _outLine{};
    std::uint64_t _outFill = 0;
    std::uint64_t _outOffset = 0;
};

/**
 * Base for the line-buffered 3x3 window filters. The input is a
 * W x H 8-bit grayscale image at SRC (LEN = W*H, APP3 = W, W must be
 * a multiple of the cache-line size); the filtered image goes to
 * DST. Three row buffers slide down the image exactly as the
 * hardware pipelines do.
 */
class RowFilterAccel : public StreamingAccelerator
{
  public:
    static constexpr std::uint32_t kRegWidth = 3;
    /** Largest supported row, bounding the line-buffer BRAM. */
    static constexpr std::uint64_t kMaxWidth = 8192;

    /** @p app names the filter ("GAU", "SBL") in state errors. */
    RowFilterAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   const char *app, std::uint32_t read_gap_cycles,
                   sim::Scope scope = {});

  protected:
    /** The per-pixel arithmetic (Gaussian or Sobel). */
    virtual std::uint8_t filterPixel(const algo::GrayImage &window,
                                     std::int64_t x) const = 0;

    void streamBegin() override;
    void consumeLine(std::uint64_t offset, const std::uint8_t *data,
                     std::uint32_t bytes) override;
    void streamEnd() override;
    void saveTransformState(StateWriter &w) const override;
    void restoreTransformState(StateReader &r) override;
    std::uint64_t transformStateCapacity() const override
    {
        return 3 * kMaxWidth + 64;
    }

  private:
    std::uint64_t width() const { return appReg(kRegWidth); }
    /** WIDTH is a nonzero multiple of the line size, at most
     *  kMaxWidth: the line buffers' shape. */
    bool widthValid() const
    {
        return width() > 0 && width() % sim::kCacheLineBytes == 0 &&
               width() <= kMaxWidth;
    }
    std::uint64_t height() const
    {
        return width() ? streamLen() / width() : 0;
    }
    void rowCompleted();
    void emitFilteredRow(const std::vector<std::uint8_t> &above,
                         const std::vector<std::uint8_t> &center,
                         const std::vector<std::uint8_t> &below,
                         std::uint64_t out_row);

    std::vector<std::uint8_t> _rowPrev;  ///< row r-1
    std::vector<std::uint8_t> _rowPrev2; ///< row r-2
    std::vector<std::uint8_t> _rowCur;   ///< row r, filling
    std::uint64_t _rowsCompleted = 0;
    const char *_app;
};

/** 3x3 Gaussian blur. */
class GauAccel : public RowFilterAccel
{
  public:
    GauAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    std::uint8_t filterPixel(const algo::GrayImage &window,
                             std::int64_t x) const override
    {
        return algo::gaussianPixel(window, x, 1);
    }
};

/** 3x3 Sobel edge detector. */
class SblAccel : public RowFilterAccel
{
  public:
    SblAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    std::uint8_t filterPixel(const algo::GrayImage &window,
                             std::int64_t x) const override
    {
        return algo::sobelPixel(window, x, 1);
    }
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_IMAGE_ACCELS_HH
