//! 2-D convolution (image filtering) on approximate adders.
//!
//! The paper's headline application domain is image/video processing; a 2-D
//! convolution kernel (blur, sharpen, Gaussian) is the canonical such
//! workload. As in [`FirFilter`](crate::FirFilter), every
//! coefficient-multiply is decomposed into shift-adds and every addition
//! runs through the configured approximate chain, so the kernel's quality
//! directly reflects the cell's multi-bit error behaviour.

use sealpaa_cells::{AdderChain, Cell};

use crate::graph::DatapathError;
use crate::serial;

/// A small grayscale image: `height × width` pixels, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u64>,
}

impl Image {
    /// Builds an image from row-major pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or either dimension is 0.
    pub fn new(width: usize, height: usize, pixels: Vec<u64>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(
            pixels.len(),
            width * height,
            "pixel count must match dimensions"
        );
        Image {
            width,
            height,
            pixels,
        }
    }

    /// A deterministic synthetic test image: a diagonal gradient with a
    /// superimposed ripple, quantized to `bits` bits.
    pub fn synthetic(width: usize, height: usize, bits: usize) -> Self {
        let peak = ((1u64 << bits) - 1) as f64;
        let pixels = (0..height)
            .flat_map(|y| {
                (0..width).map(move |x| {
                    let gradient = (x + y) as f64 / (width + height) as f64;
                    let ripple = 0.15 * ((x as f64 / 3.0).sin() * (y as f64 / 5.0).cos());
                    ((gradient + ripple).clamp(0.0, 1.0) * peak) as u64
                })
            })
            .collect();
        Image::new(width, height, pixels)
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> u64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Peak-signal-to-noise ratio of `self` against a reference image of the
    /// same dimensions, with the reference's maximum as the peak.
    ///
    /// Returns `None` when the ratio is undefined as a finite number:
    /// identical images (`mse == 0`, conventionally "infinite PSNR") or an
    /// all-zero reference (`peak == 0`, no signal to compare against).
    /// Callers rendering quality reports should print these cases as
    /// "identical" rather than a numeric dB figure. (Earlier versions
    /// returned `f64::INFINITY` here, which leaked `inf` into reports and
    /// JSON output.)
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn psnr_against(&self, reference: &Image) -> Option<f64> {
        assert_eq!(
            (self.width, self.height),
            (reference.width, reference.height),
            "image dimensions must match"
        );
        let mut sq = 0.0f64;
        let mut peak = 0u64;
        for (a, e) in self.pixels.iter().zip(&reference.pixels) {
            sq += (a.abs_diff(*e) as f64).powi(2);
            peak = peak.max(*e);
        }
        serial::psnr_db(peak, sq / self.pixels.len() as f64)
    }
}

/// A 2-D convolution whose every addition runs through an approximate adder
/// chain.
///
/// # Examples
///
/// ```
/// use sealpaa_cells::StandardCell;
/// use sealpaa_datapath::{Conv2d, Image};
///
/// // 3x3 Gaussian blur on 8-bit pixels, exact cells.
/// let kernel = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
/// let blur = Conv2d::new(
///     StandardCell::Accurate.cell(),
///     &kernel.map(|r| r.to_vec()),
///     8,
/// )?;
/// let image = Image::synthetic(16, 16, 8);
/// let out = blur.apply(&image);
/// assert_eq!(out.width(), 14); // valid convolution shrinks by kernel-1
/// assert!(out.psnr_against(&blur.apply_exact(&image)).is_none()); // identical
/// # Ok::<(), sealpaa_datapath::DatapathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    accumulator: AdderChain,
    kernel: Vec<Vec<u64>>,
    pixel_bits: usize,
}

impl Conv2d {
    /// Builds a convolution for `pixel_bits`-bit pixels with the given
    /// unsigned kernel. The accumulator chain is sized for the worst case.
    ///
    /// # Errors
    ///
    /// Returns [`DatapathError::TooWide`] if the worst-case accumulator
    /// exceeds the evaluation width.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty, ragged, all-zero, or `pixel_bits` is 0.
    pub fn new(cell: Cell, kernel: &[Vec<u64>], pixel_bits: usize) -> Result<Self, DatapathError> {
        assert!(
            !kernel.is_empty() && !kernel[0].is_empty(),
            "kernel must be non-empty"
        );
        assert!(pixel_bits > 0, "pixels need at least one bit");
        let kw = kernel[0].len();
        assert!(
            kernel.iter().all(|row| row.len() == kw),
            "kernel rows must have equal length"
        );
        Ok(Conv2d {
            accumulator: serial::accumulator(cell, kernel.iter().flatten().copied(), pixel_bits)?,
            kernel: kernel.to_vec(),
            pixel_bits,
        })
    }

    /// Kernel dimensions `(height, width)`.
    pub fn kernel_size(&self) -> (usize, usize) {
        (self.kernel.len(), self.kernel[0].len())
    }

    /// Valid convolution through the approximate accumulator; the output
    /// shrinks by `kernel − 1` in each dimension.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than the kernel.
    pub fn apply(&self, image: &Image) -> Image {
        self.run(image, false)
    }

    /// The exact reference convolution.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than the kernel.
    pub fn apply_exact(&self, image: &Image) -> Image {
        self.run(image, true)
    }

    fn run(&self, image: &Image, exact: bool) -> Image {
        let (kh, kw) = self.kernel_size();
        assert!(
            image.width >= kw && image.height >= kh,
            "image must be at least as large as the kernel"
        );
        let mask = (1u64 << self.pixel_bits) - 1;
        let out_w = image.width - kw + 1;
        let out_h = image.height - kh + 1;
        let mut pixels = Vec::with_capacity(out_w * out_h);
        for y in 0..out_h {
            for x in 0..out_w {
                let mut acc = 0u64;
                for (ky, row) in self.kernel.iter().enumerate() {
                    for (kx, &coeff) in row.iter().enumerate() {
                        let p = image.pixel(x + kx, y + ky) & mask;
                        acc = serial::shift_add(&self.accumulator, acc, p, coeff, exact);
                    }
                }
                pixels.push(acc);
            }
        }
        Image::new(out_w, out_h, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;

    fn gaussian() -> Vec<Vec<u64>> {
        vec![vec![1, 2, 1], vec![2, 4, 2], vec![1, 2, 1]]
    }

    #[test]
    fn exact_convolution_matches_direct_sum() {
        let conv = Conv2d::new(StandardCell::Accurate.cell(), &gaussian(), 8).expect("fits");
        let image = Image::synthetic(10, 8, 8);
        let out = conv.apply(&image);
        assert_eq!((out.width(), out.height()), (8, 6));
        for y in 0..6 {
            for x in 0..8 {
                let mut expect = 0u64;
                for ky in 0..3 {
                    for kx in 0..3 {
                        expect += gaussian()[ky][kx] * image.pixel(x + kx, y + ky);
                    }
                }
                assert_eq!(out.pixel(x, y), expect, "({x},{y})");
            }
        }
    }

    #[test]
    fn approximate_blur_loses_psnr_but_not_everything() {
        let image = Image::synthetic(24, 24, 8);
        let exact = Conv2d::new(StandardCell::Accurate.cell(), &gaussian(), 8)
            .expect("fits")
            .apply(&image);
        let good = Conv2d::new(StandardCell::Lpaa6.cell(), &gaussian(), 8)
            .expect("fits")
            .apply(&image);
        let bad = Conv2d::new(StandardCell::Lpaa2.cell(), &gaussian(), 8)
            .expect("fits")
            .apply(&image);
        let psnr_good = good.psnr_against(&exact).expect("differs from exact");
        let psnr_bad = bad.psnr_against(&exact).expect("differs from exact");
        // 16 chained approximate additions per pixel compound hard; the
        // point is the *ranking*, plus a sanity floor on the better cell.
        assert!(psnr_good.is_finite() && psnr_good > 5.0, "got {psnr_good}");
        assert!(psnr_good > psnr_bad, "{psnr_good} vs {psnr_bad}");
    }

    #[test]
    fn synthetic_image_is_deterministic_and_in_range() {
        let a = Image::synthetic(12, 9, 8);
        let b = Image::synthetic(12, 9, 8);
        assert_eq!(a, b);
        for y in 0..9 {
            for x in 0..12 {
                assert!(a.pixel(x, y) <= 255);
            }
        }
    }

    #[test]
    fn psnr_of_identical_images_is_undefined_not_inf() {
        let image = Image::synthetic(8, 8, 8);
        assert_eq!(image.psnr_against(&image), None);
        // A one-pixel difference brings it back to a finite figure.
        let mut pixels: Vec<u64> = (0..64).map(|i| image.pixel(i % 8, i / 8)).collect();
        pixels[0] ^= 1;
        let nudged = Image::new(8, 8, pixels);
        let psnr = nudged.psnr_against(&image).expect("differs");
        assert!(psnr.is_finite() && psnr > 0.0);
    }

    #[test]
    fn psnr_of_zero_reference_is_undefined() {
        let zero = Image::new(2, 2, vec![0; 4]);
        let other = Image::new(2, 2, vec![1, 0, 0, 0]);
        assert_eq!(other.psnr_against(&zero), None);
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn psnr_dimension_mismatch_panics() {
        let a = Image::synthetic(8, 8, 8);
        let b = Image::synthetic(9, 8, 8);
        let _ = a.psnr_against(&b);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_kernel_panics() {
        let _ = Conv2d::new(StandardCell::Accurate.cell(), &[vec![1, 2], vec![1]], 8);
    }

    #[test]
    fn oversized_accumulator_rejected() {
        // The last two gains overflow a u64 sum.
        for kernel in [
            vec![vec![u64::MAX >> 4]],
            vec![vec![u64::MAX, 2]],
            vec![vec![1 << 63], vec![1 << 63]],
        ] {
            let err = Conv2d::new(StandardCell::Accurate.cell(), &kernel, 8).expect_err("too wide");
            assert!(matches!(err, DatapathError::TooWide { .. }), "{kernel:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least as large")]
    fn image_smaller_than_kernel_panics() {
        let conv = Conv2d::new(StandardCell::Accurate.cell(), &gaussian(), 8).expect("fits");
        let _ = conv.apply(&Image::synthetic(2, 2, 8));
    }
}
