//! Sinusoidal positional encoding (paper Eq. 12).

use odt_tensor::Tensor;

/// The positional encoding of Eq. 12 for one position, into `row` (its
/// length is the even dimension `d`):
///
/// `PE(n)[2i] = sin(n / 10000^(2i/d))`, `PE(n)[2i+1] = cos(n / 10000^(2i/d))`.
pub fn positional_encoding_row(n: usize, row: &mut [f32]) {
    let d = row.len();
    assert!(
        d.is_multiple_of(2),
        "positional encoding dimension must be even"
    );
    for (i, pair) in row.chunks_exact_mut(2).enumerate() {
        let angle = n as f32 / 10000f32.powf(2.0 * i as f32 / d as f32);
        pair[0] = angle.sin();
        pair[1] = angle.cos();
    }
}

/// [`positional_encoding_row`] for positions `0..len`, as `[len, d]`. Used
/// to encode flattened-PiT positions in the MViT; the denoiser embeds the
/// diffusion step indicator `n` row by row.
pub fn positional_encoding(len: usize, d: usize) -> Tensor {
    assert!(
        d.is_multiple_of(2),
        "positional encoding dimension must be even"
    );
    let mut out = Tensor::zeros(vec![len, d]);
    for (n, row) in out.data_mut().chunks_exact_mut(d.max(1)).enumerate() {
        positional_encoding_row(n, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_range() {
        let pe = positional_encoding(16, 8);
        assert_eq!(pe.shape(), &[16, 8]);
        assert!(pe.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn position_zero_is_sin0_cos0() {
        let pe = positional_encoding(2, 4);
        assert_eq!(pe.at(&[0, 0]), 0.0); // sin 0
        assert_eq!(pe.at(&[0, 1]), 1.0); // cos 0
    }

    #[test]
    fn distinct_positions_distinct_codes() {
        let pe = positional_encoding(64, 16);
        for a in 0..8 {
            for b in (a + 1)..8 {
                let ra = &pe.data()[a * 16..(a + 1) * 16];
                let rb = &pe.data()[b * 16..(b + 1) * 16];
                assert!(ra != rb, "positions {a} and {b} collide");
            }
        }
    }

    #[test]
    fn rows_match_table_rows_bit_for_bit() {
        use crate::testutil::bits;
        let d = 6;
        let pe = positional_encoding(1001, d);
        for n in [0usize, 1, 7, 1000] {
            let mut row = vec![f32::NAN; d];
            positional_encoding_row(n, &mut row);
            let want = &pe.data()[n * d..(n + 1) * d];
            assert_eq!(bits(&row), bits(want), "step {n}");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_dim_rejected() {
        let _ = positional_encoding(4, 3);
    }
}
