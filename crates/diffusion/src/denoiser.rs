//! The conditioned PiT denoiser `ε_θ(X_n, n, odt)` of paper §4.2:
//! a UNet of OCConv (ODT-Input Conditioned Convolutional) modules with
//! spatial attention, fed by the positional step encoding (Eq. 12) and the
//! `FC_OD` projection of the ODT-Input (Eq. 13).

use crate::ddpm::{NoisePredictor, StepEval};
use odt_nn::{
    positional_encoding_row, Conv2d, GroupNorm, HasParams, LayerNorm, Linear, MultiHeadAttention,
};
use odt_tensor::{Buf, Epilogue, Graph, Param, Tensor, Var, Workspace};
use rand::Rng;

/// Architecture hyper-parameters of the denoiser.
#[derive(Clone, Debug)]
pub struct DenoiserConfig {
    /// Image channels (3 for PiTs).
    pub channels: usize,
    /// Grid side length `L_G`.
    pub lg: usize,
    /// Channel width at full resolution; doubles per down level.
    pub base_channels: usize,
    /// Number of down/up levels (`L_D` in Table 2).
    pub depth: usize,
    /// Conditioning embedding width (`d` in Eqs. 12–13).
    pub cond_dim: usize,
    /// Apply spatial attention only when `H*W` is at most this (cost guard;
    /// the paper applies attention in every block, which this defaults to).
    pub attn_max_tokens: usize,
}

impl DenoiserConfig {
    /// The paper-shaped configuration for a given grid size (`L_D = 3`).
    pub fn paper(lg: usize) -> Self {
        DenoiserConfig {
            channels: 3,
            lg,
            base_channels: 32,
            depth: 3,
            cond_dim: 128,
            attn_max_tokens: 1 << 16,
        }
    }

    /// A reduced configuration for CPU-scale experiments.
    pub fn fast(lg: usize) -> Self {
        DenoiserConfig {
            channels: 3,
            lg,
            base_channels: 8,
            depth: 2,
            cond_dim: 32,
            attn_max_tokens: 256,
        }
    }
}

fn heads_for(c: usize) -> usize {
    if c >= 16 && c.is_multiple_of(4) {
        4
    } else if c.is_multiple_of(2) {
        2
    } else {
        1
    }
}

fn groups_for(c: usize) -> usize {
    // Prefer few groups with at least two channels per group; normalizing
    // every channel independently (groups == channels) starves the network
    // of per-channel magnitude information.
    for g in [4, 2, 1] {
        if c.is_multiple_of(g) && c / g >= 2 {
            return g;
        }
    }
    1
}

/// One OCConv module (Figure 6(b), Eqs. 14–16): convolution, additive fusion
/// of the conditioning vector into every pixel, two further convolutions
/// with GELU, and a 1×1 residual shortcut. A group normalization at entry
/// plays the role of ConvNeXt's normalization layer.
struct OcConv {
    norm: GroupNorm,
    conv1: Conv2d,
    fc_cond: Linear,
    conv2: Conv2d,
    conv3: Conv2d,
    res: Conv2d,
    c_in: usize,
}

impl OcConv {
    fn new(rng: &mut impl Rng, c_in: usize, c_out: usize, cond_dim: usize, name: &str) -> Self {
        OcConv {
            norm: GroupNorm::new(groups_for(c_in), c_in, &format!("{name}.norm")),
            conv1: Conv2d::same3(rng, c_in, c_in, &format!("{name}.conv1")),
            fc_cond: Linear::new(rng, cond_dim, c_in, &format!("{name}.fc_cond")),
            conv2: Conv2d::same3(rng, c_in, c_out, &format!("{name}.conv2")),
            conv3: Conv2d::same3(rng, c_out, c_out, &format!("{name}.conv3")),
            res: Conv2d::proj1(rng, c_in, c_out, &format!("{name}.res")),
            c_in,
        }
    }

    /// `x: [b, c_in, h, w]`, `cond: [b, cond_dim]` → `[b, c_out, h, w]`.
    fn forward(&self, g: &Graph, x: Var, cond: Var) -> Var {
        let shape = g.shape(x);
        let b = shape[0];
        let normed = self.norm.forward(g, x);
        let hid = self.conv1.forward(g, normed); // Eq. 14
                                                 // Eq. 15: add FC_Cond(cond) to every pixel, per channel.
        let cvec = self.fc_cond.forward(g, cond); // [b, c_in]
        let cmap = g.reshape(cvec, vec![b, self.c_in, 1, 1]);
        let fused = g.add(hid, cmap);
        // Eq. 16: two convs with GELU, plus residual shortcut.
        let out = self.conv3.forward(g, g.gelu(self.conv2.forward(g, fused)));
        g.add(out, self.res.forward(g, x))
    }

    /// [`OcConv::forward`] without the tape: the condition add, the GELU
    /// and the shortcut add ride the convolutions as epilogues.
    fn eval(&self, ws: &mut Workspace, x: Buf, cond: Buf) -> Buf {
        let mark = ws.mark();
        let normed = self.norm.eval(ws, x, false);
        let cvec = self.fc_cond.eval(ws, cond, Epilogue::None);
        let fused = self.conv1.eval(ws, normed, Epilogue::AddChannel(cvec));
        let hid = self.conv2.eval(ws, fused, Epilogue::Gelu);
        let shortcut = self.res.eval(ws, x, Epilogue::None);
        let out = self.conv3.eval(ws, hid, Epilogue::AddMap(shortcut));
        ws.compact(mark, out)
    }
}

impl HasParams for OcConv {
    fn params(&self) -> Vec<Param> {
        let mut p = self.norm.params();
        p.extend(self.conv1.params());
        p.extend(self.fc_cond.params());
        p.extend(self.conv2.params());
        p.extend(self.conv3.params());
        p.extend(self.res.params());
        p
    }
}

/// Spatial self-attention over the flattened feature map, with residual.
/// Tokens are layer-normalized before attention — unbounded convolutional
/// activations otherwise saturate the softmax and stall learning.
struct SpatialAttention {
    norm: LayerNorm,
    mha: MultiHeadAttention,
    channels: usize,
}

impl SpatialAttention {
    fn new(rng: &mut impl Rng, channels: usize, name: &str) -> Self {
        SpatialAttention {
            norm: LayerNorm::new(channels, &format!("{name}.norm")),
            mha: MultiHeadAttention::new(rng, channels, heads_for(channels), name),
            channels,
        }
    }

    fn forward(&self, g: &Graph, x: Var) -> Var {
        let shape = g.shape(x);
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        debug_assert_eq!(c, self.channels);
        // [b, c, h, w] -> [b, hw, c]
        let tokens = g.permute(g.reshape(x, vec![b, c, h * w]), &[0, 2, 1]);
        let att = self.mha.forward(g, self.norm.forward(g, tokens), None);
        let back = g.reshape(g.permute(att, &[0, 2, 1]), vec![b, c, h, w]);
        g.add(x, back)
    }

    /// [`SpatialAttention::forward`] without the tape: the `[c, h·w]` map
    /// is already the transpose of the token matrix, so the norm and the
    /// attention run on it as it lies.
    fn eval(&self, ws: &mut Workspace, x: Buf) -> Buf {
        let mark = ws.mark();
        let normed = self.norm.eval(ws, x);
        let out = self.mha.eval(ws, normed, Epilogue::AddMap(x));
        ws.compact(mark, out)
    }
}

impl HasParams for SpatialAttention {
    fn params(&self) -> Vec<Param> {
        let mut p = self.norm.params();
        p.extend(self.mha.params());
        p
    }
}

struct DownBlock {
    oc1: OcConv,
    oc2: OcConv,
    attn: Option<SpatialAttention>,
    down: Conv2d,
}

struct UpBlock {
    up_conv: Conv2d,
    oc1: OcConv,
    oc2: OcConv,
    attn: Option<SpatialAttention>,
}

struct MidBlock {
    oc1: OcConv,
    attn: Option<SpatialAttention>,
    oc2: OcConv,
}

/// Centre of cell `i` of `lg`, normalized to `[-1, 1]`.
fn coordinate(i: usize, lg: usize) -> f32 {
    2.0 * (i as f32 + 0.5) / lg as f32 - 1.0
}

/// Constant coordinate maps in `[-1, 1]`: channel 0 = normalized row
/// (latitude index), channel 1 = normalized column (longitude index),
/// matching the normalization of the ODT-Input features.
fn coordinate_channels(batch: usize, lg: usize) -> Tensor {
    let coord = |i: usize| coordinate(i, lg);
    let mut t = Tensor::zeros(vec![batch, 2, lg, lg]);
    for sample in t.data_mut().chunks_mut(2 * lg * lg) {
        let (row_map, col_map) = sample.split_at_mut(lg * lg);
        for (row, line) in row_map.chunks_mut(lg).enumerate() {
            line.fill(coord(row));
        }
        for line in col_map.chunks_mut(lg) {
            for (col, v) in line.iter_mut().enumerate() {
                *v = coord(col);
            }
        }
    }
    t
}

/// What [`ConditionedDenoiser::eval`] needs of a batch of queries that no
/// reverse step changes, computed once by [`ConditionedDenoiser::hoist`] at
/// the bottom of a [`Workspace`]: the padded network input with its zero
/// margin and CoordConv planes in place, `FC_OD(odt)`, and the step
/// encodings of the step list.
pub struct Hoisted {
    input: Buf,
    od: Buf,
    pe: Buf,
    mark: usize,
}

/// The full conditioned UNet denoiser (Figure 6(a)).
pub struct ConditionedDenoiser {
    cfg: DenoiserConfig,
    padded: usize,
    fc_od: Linear,
    in_conv: Conv2d,
    downs: Vec<DownBlock>,
    mid: MidBlock,
    ups: Vec<UpBlock>,
    out_norm: GroupNorm,
    out_conv: Conv2d,
}

impl ConditionedDenoiser {
    /// Build with random initialization.
    pub fn new(rng: &mut impl Rng, cfg: DenoiserConfig) -> Self {
        assert!(cfg.depth >= 1, "denoiser needs at least one level");
        let stride = 1usize << cfg.depth;
        let padded = cfg.lg.div_ceil(stride) * stride;
        let d = cfg.cond_dim;
        let c = |i: usize| cfg.base_channels << i;

        let fc_od = Linear::new(rng, 5, d, "denoiser.fc_od");
        // +2 input channels: constant normalized x/y coordinate maps
        // (CoordConv). The ODT condition names *locations*, but plain
        // convolutions are translation-equivariant and cannot place the
        // route endpoints without absolute position information; see
        // DESIGN.md §5.
        let in_conv = Conv2d::same3(rng, cfg.channels + 2, c(0), "denoiser.in");

        let mut downs = Vec::with_capacity(cfg.depth);
        for i in 0..cfg.depth {
            let res = padded >> i;
            let attn = (res * res <= cfg.attn_max_tokens)
                .then(|| SpatialAttention::new(rng, c(i + 1), &format!("denoiser.down{i}.attn")));
            downs.push(DownBlock {
                oc1: OcConv::new(rng, c(i), c(i + 1), d, &format!("denoiser.down{i}.oc1")),
                oc2: OcConv::new(rng, c(i + 1), c(i + 1), d, &format!("denoiser.down{i}.oc2")),
                attn,
                down: Conv2d::new(
                    rng,
                    c(i + 1),
                    c(i + 1),
                    4,
                    2,
                    1,
                    &format!("denoiser.down{i}.down"),
                ),
            });
        }

        let cl = c(cfg.depth);
        let mid_res = padded >> cfg.depth;
        let mid = MidBlock {
            oc1: OcConv::new(rng, cl, cl, d, "denoiser.mid.oc1"),
            attn: (mid_res * mid_res <= cfg.attn_max_tokens)
                .then(|| SpatialAttention::new(rng, cl, "denoiser.mid.attn")),
            oc2: OcConv::new(rng, cl, cl, d, "denoiser.mid.oc2"),
        };

        let mut ups = Vec::with_capacity(cfg.depth);
        for i in (0..cfg.depth).rev() {
            let res = padded >> i;
            let attn = (res * res <= cfg.attn_max_tokens)
                .then(|| SpatialAttention::new(rng, c(i), &format!("denoiser.up{i}.attn")));
            ups.push(UpBlock {
                up_conv: Conv2d::same3(rng, c(i + 1), c(i + 1), &format!("denoiser.up{i}.upconv")),
                oc1: OcConv::new(rng, 2 * c(i + 1), c(i), d, &format!("denoiser.up{i}.oc1")),
                oc2: OcConv::new(rng, c(i), c(i), d, &format!("denoiser.up{i}.oc2")),
                attn,
            });
        }

        ConditionedDenoiser {
            padded,
            fc_od,
            in_conv,
            downs,
            mid,
            ups,
            out_norm: GroupNorm::new(
                groups_for(cfg.base_channels),
                cfg.base_channels,
                "denoiser.out_norm",
            ),
            out_conv: Conv2d::same3(rng, cfg.base_channels, cfg.channels, "denoiser.out"),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DenoiserConfig {
        &self.cfg
    }

    /// Zero-pad the spatial dims from `lg` to the internal padded size.
    fn pad(&self, g: &Graph, x: Var) -> Var {
        let shape = g.shape(x);
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        if h == self.padded && w == self.padded {
            return x;
        }
        let mut out = x;
        if self.padded > h {
            let zeros = g.input(Tensor::zeros(vec![b, c, self.padded - h, w]));
            out = g.concat(&[out, zeros], 2);
        }
        if self.padded > w {
            let zeros = g.input(Tensor::zeros(vec![b, c, self.padded, self.padded - w]));
            out = g.concat(&[out, zeros], 3);
        }
        out
    }

    /// Crop the padded output back to `lg × lg`.
    fn crop(&self, g: &Graph, x: Var) -> Var {
        if self.padded == self.cfg.lg {
            return x;
        }
        let cut = g.slice(x, 2, 0, self.cfg.lg);
        g.slice(cut, 3, 0, self.cfg.lg)
    }

    /// The conditioning vector `PE(n) + FC_OD(odt)` per sample (Eq. 15's
    /// inner sum).
    fn condition(&self, g: &Graph, steps: &[usize], cond: &Tensor) -> Var {
        let d = self.cfg.cond_dim;
        let mut pe_rows = Tensor::zeros(vec![steps.len(), d]);
        for (row, &n) in pe_rows.data_mut().chunks_exact_mut(d).zip(steps) {
            positional_encoding_row(n, row);
        }
        let pe = g.input(pe_rows);
        let od = self.fc_od.forward(g, g.input(cond.clone()));
        g.add(pe, od)
    }

    /// Set up `ws` for [`ConditionedDenoiser::eval`] calls on the queries
    /// `cond` (`[b, 5]`) at steps taken from `steps`. Everything `ws` held
    /// is dead afterwards.
    pub fn hoist(&self, ws: &mut Workspace, cond: &Tensor, steps: &[usize]) -> Hoisted {
        let (b, d) = (cond.shape()[0], self.cfg.cond_dim);
        assert_eq!(cond.shape(), &[b, 5], "cond must be [b, 5]");
        let (lg, p, c) = (self.cfg.lg, self.padded, self.cfg.channels);
        ws.release(0);
        let input = ws.alloc([b, c + 2, p, p]);
        let data = ws.data_mut(input);
        data.fill(0.0);
        for sample in data.chunks_exact_mut((c + 2) * p * p) {
            let (row_map, col_map) = sample[c * p * p..].split_at_mut(p * p);
            for row in 0..lg {
                row_map[row * p..row * p + lg].fill(coordinate(row, lg));
                for col in 0..lg {
                    col_map[row * p + col] = coordinate(col, lg);
                }
            }
        }
        let features = ws.alloc([b, 5, 1, 1]);
        ws.data_mut(features).copy_from_slice(cond.data());
        let od = self.fc_od.eval(ws, features, Epilogue::None);
        let pe = ws.alloc([1, 1, steps.len(), d]);
        for (row, &n) in ws.data_mut(pe).chunks_exact_mut(d).zip(steps) {
            positional_encoding_row(n, row);
        }
        let mark = ws.mark();
        Hoisted {
            input,
            od,
            pe,
            mark,
        }
    }

    /// [`NoisePredictor::predict`] without the tape: `ε_θ` for the noisy
    /// batch `x` (`[b, c, lg, lg]`, flat) into `eps`, sample `j` at the
    /// step `hoisted` was given at index `step_rows[j]`. Exactly the bits of
    /// `predict` for finite inputs. Rewinds `ws` to the hoisted state first,
    /// so each call reuses the arena the first one grew.
    pub fn eval(
        &self,
        ws: &mut Workspace,
        hoisted: &Hoisted,
        x: &[f32],
        step_rows: &[usize],
        eps: &mut [f32],
    ) {
        let [b, c_in, p, _] = hoisted.input.shape();
        let (lg, c, d) = (self.cfg.lg, self.cfg.channels, self.cfg.cond_dim);
        assert_eq!(x.len(), b * c * lg * lg, "x must be [b, c, lg, lg]");
        assert_eq!(eps.len(), x.len(), "eps must be shaped like x");
        assert_eq!(step_rows.len(), b, "one step per sample");
        ws.release(hoisted.mark);
        // The noisy image goes into the first `c` planes of the hoisted
        // input; its margin and coordinate planes are already there.
        let input = ws.data_mut(hoisted.input);
        for (i, plane) in x.chunks_exact(lg * lg).enumerate() {
            let at = (i / c * c_in + i % c) * p * p;
            let padded = input[at..at + p * p].chunks_exact_mut(p);
            for (dst, line) in padded.zip(plane.chunks_exact(lg)) {
                dst[..lg].copy_from_slice(line);
            }
        }
        let cvec = ws.alloc(hoisted.od.shape());
        let (cv, rest) = ws.write(cvec);
        let (od, pe) = (rest.get(hoisted.od), rest.get(hoisted.pe));
        for ((row, od), &at) in cv
            .chunks_exact_mut(d)
            .zip(od.chunks_exact(d))
            .zip(step_rows)
        {
            let pe = &pe[at * d..(at + 1) * d];
            for ((v, &p), &o) in row.iter_mut().zip(pe).zip(od) {
                *v = p + o;
            }
        }

        let mut x = self.in_conv.eval(ws, hoisted.input, Epilogue::None);
        let mut skips = Vec::with_capacity(self.downs.len());
        for block in &self.downs {
            x = block.oc1.eval(ws, x, cvec);
            x = block.oc2.eval(ws, x, cvec);
            if let Some(attn) = &block.attn {
                x = attn.eval(ws, x);
            }
            skips.push(x);
            x = block.down.eval(ws, x, Epilogue::None);
        }
        x = self.mid.oc1.eval(ws, x, cvec);
        if let Some(attn) = &self.mid.attn {
            x = attn.eval(ws, x);
        }
        x = self.mid.oc2.eval(ws, x, cvec);
        for block in &self.ups {
            let skip = skips.pop().expect("skip per up block");
            x = ws.upsample_nearest2(x);
            x = block.up_conv.eval(ws, x, Epilogue::None);
            x = ws.concat_channels(x, skip);
            x = block.oc1.eval(ws, x, cvec);
            x = block.oc2.eval(ws, x, cvec);
            if let Some(attn) = &block.attn {
                x = attn.eval(ws, x);
            }
        }
        let normed = self.out_norm.eval(ws, x, true);
        let out = self.out_conv.eval(ws, normed, Epilogue::None);
        // Crop the padded output back to `lg × lg`.
        let planes = ws.data(out).chunks_exact(p * p);
        for (dst, plane) in eps.chunks_exact_mut(lg * lg).zip(planes) {
            for (dst, line) in dst.chunks_exact_mut(lg).zip(plane.chunks_exact(p)) {
                dst.copy_from_slice(&line[..lg]);
            }
        }
    }
}

impl NoisePredictor for ConditionedDenoiser {
    fn predict(&self, g: &Graph, x_noisy: Var, steps: &[usize], cond: &Tensor) -> Var {
        let shape = g.shape(x_noisy);
        assert_eq!(shape.len(), 4, "denoiser input must be [b, c, l, l]");
        assert_eq!(shape[1], self.cfg.channels, "channel mismatch");
        assert_eq!(shape[2], self.cfg.lg, "grid size mismatch");
        assert_eq!(steps.len(), shape[0], "one step per sample");
        assert_eq!(cond.shape(), &[shape[0], 5], "cond must be [b, 5]");

        let cvec = self.condition(g, steps, cond);
        let coords = g.input(coordinate_channels(shape[0], self.cfg.lg));
        let with_coords = g.concat(&[x_noisy, coords], 1);
        let mut x = self.in_conv.forward(g, self.pad(g, with_coords));
        let mut skips = Vec::with_capacity(self.downs.len());
        for block in &self.downs {
            x = block.oc1.forward(g, x, cvec);
            x = block.oc2.forward(g, x, cvec);
            if let Some(attn) = &block.attn {
                x = attn.forward(g, x);
            }
            skips.push(x);
            x = block.down.forward(g, x);
        }
        x = self.mid.oc1.forward(g, x, cvec);
        if let Some(attn) = &self.mid.attn {
            x = attn.forward(g, x);
        }
        x = self.mid.oc2.forward(g, x, cvec);
        for block in &self.ups {
            let skip = skips.pop().expect("skip per up block");
            x = g.upsample_nearest2(x);
            x = block.up_conv.forward(g, x);
            x = g.concat(&[x, skip], 1);
            x = block.oc1.forward(g, x, cvec);
            x = block.oc2.forward(g, x, cvec);
            if let Some(attn) = &block.attn {
                x = attn.forward(g, x);
            }
        }
        let out = self
            .out_conv
            .forward(g, g.silu(self.out_norm.forward(g, x)));
        self.crop(g, out)
    }

    fn evaluator<'a>(&'a self, cond: &'a Tensor, steps: &'a [usize]) -> StepEval<'a> {
        let mut ws = Workspace::new();
        let hoisted = self.hoist(&mut ws, cond, steps);
        let mut rows = vec![0usize; cond.shape()[0]];
        Box::new(move |x, i, eps| {
            rows.fill(i);
            self.eval(&mut ws, &hoisted, x.data(), &rows, eps);
        })
    }
}

impl HasParams for ConditionedDenoiser {
    fn params(&self) -> Vec<Param> {
        let mut p = self.fc_od.params();
        p.extend(self.in_conv.params());
        for b in &self.downs {
            p.extend(b.oc1.params());
            p.extend(b.oc2.params());
            if let Some(a) = &b.attn {
                p.extend(a.params());
            }
            p.extend(b.down.params());
        }
        p.extend(self.mid.oc1.params());
        if let Some(a) = &self.mid.attn {
            p.extend(a.params());
        }
        p.extend(self.mid.oc2.params());
        for b in &self.ups {
            p.extend(b.up_conv.params());
            p.extend(b.oc1.params());
            p.extend(b.oc2.params());
            if let Some(a) = &b.attn {
                p.extend(a.params());
            }
        }
        p.extend(self.out_norm.params());
        p.extend(self.out_conv.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ddpm, NoiseSchedule};
    use odt_nn::Adam;
    use odt_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny(lg: usize) -> (ConditionedDenoiser, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = DenoiserConfig {
            channels: 3,
            lg,
            base_channels: 4,
            depth: 2,
            cond_dim: 16,
            attn_max_tokens: 64,
        };
        let d = ConditionedDenoiser::new(&mut rng, cfg);
        (d, rng)
    }

    #[test]
    fn coordinate_channels_hold_row_and_column_maps() {
        let lg = 5;
        let t = coordinate_channels(3, lg);
        assert_eq!(t.shape(), &[3, 2, lg, lg]);
        for b in 0..3 {
            for row in 0..lg {
                for col in 0..lg {
                    let rv = 2.0 * (row as f32 + 0.5) / lg as f32 - 1.0;
                    let cv = 2.0 * (col as f32 + 0.5) / lg as f32 - 1.0;
                    assert_eq!(t.at(&[b, 0, row, col]).to_bits(), rv.to_bits());
                    assert_eq!(t.at(&[b, 1, row, col]).to_bits(), cv.to_bits());
                }
            }
        }
    }

    #[test]
    fn output_matches_input_shape() {
        let (d, mut rng) = tiny(8);
        let g = Graph::new();
        let x = g.input(init::normal(&mut rng, vec![2, 3, 8, 8], 1.0));
        let y = d.predict(&g, x, &[3, 7], &Tensor::zeros(vec![2, 5]));
        assert_eq!(g.shape(y), vec![2, 3, 8, 8]);
    }

    #[test]
    fn handles_non_power_of_two_grid() {
        // lg = 10 with depth 2 requires padding to 12.
        let (d, mut rng) = tiny(10);
        assert_eq!(d.padded, 12);
        let g = Graph::new();
        let x = g.input(init::normal(&mut rng, vec![1, 3, 10, 10], 1.0));
        let y = d.predict(&g, x, &[1], &Tensor::zeros(vec![1, 5]));
        assert_eq!(g.shape(y), vec![1, 3, 10, 10]);
        assert!(g.value(y).is_finite());
    }

    #[test]
    fn conditioning_changes_output() {
        let (d, mut rng) = tiny(8);
        let input = init::normal(&mut rng, vec![1, 3, 8, 8], 1.0);
        let run = |cond: Tensor, step: usize| {
            let g = Graph::new();
            let x = g.input(input.clone());
            g.value(d.predict(&g, x, &[step], &cond))
        };
        let base = run(Tensor::zeros(vec![1, 5]), 3);
        let other_cond = run(Tensor::full(vec![1, 5], 0.9), 3);
        let other_step = run(Tensor::zeros(vec![1, 5]), 9);
        let diff = |a: &Tensor, b: &Tensor| -> f32 {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        assert!(diff(&base, &other_cond) > 1e-3, "ODT condition ignored");
        assert!(diff(&base, &other_step) > 1e-3, "step indicator ignored");
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let (d, mut rng) = tiny(8);
        let g = Graph::new();
        let x = g.input(init::normal(&mut rng, vec![1, 3, 8, 8], 1.0));
        let y = d.predict(&g, x, &[2], &Tensor::full(vec![1, 5], 0.1));
        g.backward(g.sum_all(g.square(y)));
        let silent: Vec<String> = d
            .params()
            .iter()
            .filter(|p| p.grad().data().iter().all(|&v| v == 0.0))
            .map(|p| p.name())
            .collect();
        // Bias-like params can legitimately be zero-grad only if their layer
        // output is dead; with random inputs nothing should be fully silent.
        assert!(silent.is_empty(), "silent params: {silent:?}");
    }

    #[test]
    fn denoiser_can_fit_identity_map() {
        // Regression guard for the attention pre-norm fix: without token
        // normalization before spatial attention, the softmax saturates and
        // the UNet cannot even reproduce its input (loss stalls at ~1.0).
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = DenoiserConfig {
            channels: 3,
            lg: 8,
            base_channels: 8,
            depth: 1,
            cond_dim: 16,
            attn_max_tokens: 64, // attention active at every level
        };
        let den = ConditionedDenoiser::new(&mut rng, cfg);
        let mut opt = Adam::new(den.params(), 5e-3);
        let steps = vec![5usize; 4];
        let cond = Tensor::zeros(vec![4, 5]);
        let mut last = f32::INFINITY;
        for _ in 0..150 {
            opt.zero_grad();
            let x = init::normal(&mut rng, vec![4, 3, 8, 8], 1.0);
            let g = Graph::new();
            let pred = den.predict(&g, g.input(x.clone()), &steps, &cond);
            let loss = g.mse(pred, g.input(x));
            last = g.value(loss).data()[0];
            g.backward(loss);
            opt.step();
        }
        assert!(last < 0.35, "identity-fit loss stalled at {last}");
    }

    #[test]
    fn short_training_reduces_loss() {
        // Overfit noise prediction on a single fixed image: loss must drop.
        let (d, mut rng) = tiny(8);
        let ddpm = Ddpm::new(NoiseSchedule::linear(8));
        let x0 = init::uniform(&mut rng, vec![4, 3, 8, 8], -1.0, 1.0);
        let cond = Tensor::zeros(vec![4, 5]);
        let mut opt = Adam::new(d.params(), 3e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            opt.zero_grad();
            let g = Graph::new();
            let loss = ddpm.training_loss(&g, &d, &x0, &cond, &mut rng);
            last = g.value(loss).data()[0];
            first.get_or_insert(last);
            g.backward(loss);
            opt.step();
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.9,
            "loss did not decrease: {first} -> {last}"
        );
    }

    fn config(
        lg: usize,
        base_channels: usize,
        cond_dim: usize,
        attn_max_tokens: usize,
    ) -> DenoiserConfig {
        DenoiserConfig {
            channels: 3,
            lg,
            base_channels,
            depth: 2,
            cond_dim,
            attn_max_tokens,
        }
    }

    /// A denoiser whose every parameter is off its initial value (biases
    /// and `beta` start at zero, `gamma` at one), so no term drops out.
    fn perturbed(cfg: DenoiserConfig, seed: u64) -> ConditionedDenoiser {
        let mut rng = StdRng::seed_from_u64(seed);
        let den = ConditionedDenoiser::new(&mut rng, cfg);
        for p in den.params() {
            let noise = init::uniform(&mut rng, p.value().shape().to_vec(), -0.05, 0.05);
            p.set_value(p.value().add(&noise));
        }
        den
    }

    /// One batch of queries: noisy images, one step per sample, features.
    struct Batch {
        x: Tensor,
        steps: Vec<usize>,
        cond: Tensor,
    }

    fn batch(lg: usize, b: usize, zero_cond: bool, seed: u64) -> Batch {
        let mut rng = StdRng::seed_from_u64(seed);
        let cond = if zero_cond {
            Tensor::zeros(vec![b, 5])
        } else {
            init::uniform(&mut rng, vec![b, 5], -1.0, 1.0)
        };
        Batch {
            x: init::normal(&mut rng, vec![b, 3, lg, lg], 1.0),
            steps: [3usize, 7, 1][..b].to_vec(),
            cond,
        }
    }

    fn on_tape(den: &ConditionedDenoiser, q: &Batch) -> Vec<u32> {
        let g = Graph::new();
        let y = den.predict(&g, g.input(q.x.clone()), &q.steps, &q.cond);
        g.value(y).data().iter().map(|v| v.to_bits()).collect()
    }

    fn on_workspace(den: &ConditionedDenoiser, ws: &mut Workspace, q: &Batch) -> Vec<u32> {
        let hoisted = den.hoist(ws, &q.cond, &q.steps);
        let rows: Vec<usize> = (0..q.steps.len()).collect();
        let mut eps = vec![f32::NAN; q.x.numel()];
        den.eval(ws, &hoisted, q.x.data(), &rows, &mut eps);
        eps.iter().map(|v| v.to_bits()).collect()
    }

    /// NaN into every float the arena owns, as the next user's stale data.
    fn poison(ws: &mut Workspace) {
        ws.release(0);
        let all = ws.alloc([1, 1, 1, ws.capacity()]);
        ws.data_mut(all).fill(f32::NAN);
        ws.release(0);
    }

    #[test]
    fn eval_matches_predict_bit_for_bit() {
        // The `tiny` widths and the bench model's, on an unpadded small
        // grid, a grid padded 10 -> 12 and the paper's 20; attention runs at
        // 100, 64, 36, 25, 16, 9 and 4 tokens across these, and not at 400.
        let widths = [(4usize, 16usize, 64usize), (8, 32, 128)];
        for (w, (base, cond_dim, attn)) in widths.into_iter().enumerate() {
            for lg in [8usize, 10, 20] {
                let den = perturbed(config(lg, base, cond_dim, attn), 40 + w as u64);
                for b in [1usize, 3] {
                    for zero_cond in [true, false] {
                        let q = batch(lg, b, zero_cond, (lg * b) as u64);
                        let got = on_workspace(&den, &mut Workspace::new(), &q);
                        let case = format!("base={base} lg={lg} b={b} zero_cond={zero_cond}");
                        assert_eq!(got, on_tape(&den, &q), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_reused_workspace_carries_nothing_over_and_stops_growing() {
        let den = perturbed(config(10, 8, 32, 128), 50);
        let (qa, qb) = (batch(10, 1, false, 1), batch(10, 3, false, 2));
        let fresh = |q: &Batch| on_workspace(&den, &mut Workspace::new(), q);
        let mut ws = Workspace::new();
        for q in [&qa, &qb, &qa] {
            poison(&mut ws);
            assert_eq!(on_workspace(&den, &mut ws, q), fresh(q));
        }
        // The same shapes again, new values: nothing grows.
        let hoisted = den.hoist(&mut ws, &qb.cond, &qb.steps);
        let mut eps = vec![0.0f32; qb.x.numel()];
        den.eval(&mut ws, &hoisted, qb.x.data(), &[0, 1, 2], &mut eps);
        let capacity = ws.capacity();
        let again = batch(10, 3, true, 3);
        den.eval(&mut ws, &hoisted, again.x.data(), &[2, 2, 0], &mut eps);
        assert_eq!(ws.capacity(), capacity);
    }

    #[test]
    fn nan_input_propagates_like_on_the_tape() {
        let den = perturbed(config(8, 4, 16, 64), 60);
        let mut q = batch(8, 1, false, 4);
        q.x.data_mut()[37] = f32::NAN;
        let is_nan = |bits: Vec<u32>| -> Vec<bool> {
            bits.into_iter()
                .map(|b| f32::from_bits(b).is_nan())
                .collect()
        };
        let got = is_nan(on_workspace(&den, &mut Workspace::new(), &q));
        assert!(got.iter().any(|&n| n), "the NaN vanished");
        assert_eq!(got, is_nan(on_tape(&den, &q)));
    }
}
