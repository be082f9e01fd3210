//! Parameter-derived execution state: the folded-BN weights of fused
//! convolutions and, at [`Precision::Int8`], the per-conv int8 state —
//! input-range estimates (derived from BN parameters or measured by
//! calibration) and the quantized weights built from them.

use super::{LayerState, Network, QuantState, BN_EPS};
use conv::Precision;
use tensor::vnni::I8_QMAX;
use tensor::{BlockedFilter, VnniFilter, VLEN};

impl Network {
    /// Re-derive every folded convolution's weights and bias from the
    /// current raw conv weights and BN parameters (frozen running
    /// statistics). Called after allocation and after every
    /// [`Self::load_state_dict`], so the fused plans always execute
    /// the parameters the state dict holds.
    pub(super) fn refold(&mut self) {
        for i in 0..self.layers.len() {
            let bn = match &self.layers[i] {
                LayerState::Conv { folded: Some(f), .. } => f.bn,
                _ => continue,
            };
            let (gamma, beta, mean, var) = match &self.layers[bn] {
                LayerState::Bn { gamma, beta, running_mean, running_var, .. } => {
                    (gamma.w.clone(), beta.w.clone(), running_mean.clone(), running_var.clone())
                }
                _ => unreachable!("folds target bn nodes"),
            };
            if let LayerState::Conv { w, folded: Some(f), .. } = &mut self.layers[i] {
                let kpad = f.bias.len();
                let mut scale = vec![0.0f32; kpad];
                for k in 0..kpad {
                    scale[k] = gamma[k] / (var[k] + BN_EPS).sqrt();
                    // padding lanes stay exactly 0 (canonical gamma=1,
                    // var=1, beta=mean=0 would give 0 anyway, but the
                    // zero-lane invariant deserves no rounding risk)
                    f.bias[k] = if k < w.k { beta[k] - mean[k] * scale[k] } else { 0.0 };
                }
                // blocked filter layout [Kb][Cb][R][S][c][k]: the
                // output channel of element `idx` is
                // (idx / stride_kb)·VLEN + idx % VLEN
                let stride_kb = w.stride_kb();
                for (idx, dst) in f.w.as_mut_slice().iter_mut().enumerate() {
                    *dst = w.as_slice()[idx] * scale[(idx / stride_kb) * VLEN + idx % VLEN];
                }
            }
        }
        // folded weights feed the int8 quantization — refresh it too
        // (no-op at f32 precision)
        self.requantize();
    }

    /// Derive a per-channel absolute-maximum estimate for every
    /// blob-owning node from the *current* parameters, walking the
    /// (topologically ordered) node list:
    ///
    /// * the network input is assumed normalized to `|x| <= 1`
    ///   (calibration measures the real range when that is wrong);
    /// * a BN output — standalone or folded into its producer conv —
    ///   is bounded by `|beta| + 3·|gamma|` per channel (the frozen
    ///   running statistics normalize the pre-activation to ~N(0,1));
    /// * pooling and global average pooling never increase a maximum;
    /// * concat concatenates channel ranges, a residual add sums them;
    /// * a convolution *without* a folded BN has an unknown output
    ///   range → `None`, and every consumer conv falls back to f32
    ///   until calibration covers it.
    fn derive_amax(&self) -> Vec<Option<Vec<f32>>> {
        let n = self.layers.len();
        let mut amax: Vec<Option<Vec<f32>>> = vec![None; n];
        let bn_bound = |gamma: &[f32], beta: &[f32], cpad: usize| -> Vec<f32> {
            (0..cpad).map(|c| beta[c].abs() + 3.0 * gamma[c].abs()).collect()
        };
        let add_residual = |own: Vec<f32>, res: Option<&Vec<f32>>| -> Option<Vec<f32>> {
            res.map(|r| own.iter().zip(r).map(|(a, b)| a + b).collect())
        };
        for i in 0..n {
            if self.alias[i] != i {
                continue;
            }
            let cpad = self.shapes[i].0.next_multiple_of(VLEN);
            let bottom_owner = || self.alias[self.etg.eng.preds[i][0]];
            amax[i] = match &self.layers[i] {
                LayerState::Input => Some(vec![1.0; cpad]),
                LayerState::Conv { folded: Some(f), .. } => {
                    let bound = match &self.layers[f.bn] {
                        LayerState::Bn { gamma, beta, .. } => bn_bound(&gamma.w, &beta.w, cpad),
                        _ => unreachable!("folds target bn nodes"),
                    };
                    match f.eltwise {
                        Some(ro) => add_residual(bound, amax[ro].as_ref()),
                        None => Some(bound),
                    }
                }
                LayerState::Conv { folded: None, .. } => None,
                LayerState::Bn { gamma, beta, eltwise, .. } => {
                    let bound = bn_bound(&gamma.w, &beta.w, cpad);
                    match eltwise {
                        Some(ro) => add_residual(bound, amax[*ro].as_ref()),
                        None => Some(bound),
                    }
                }
                LayerState::Pool { .. } | LayerState::Gap => amax[bottom_owner()].clone(),
                LayerState::Concat => {
                    let mut cat = Vec::with_capacity(cpad);
                    let mut ok = true;
                    for &b in &self.etg.eng.preds[i] {
                        let o = self.alias[b];
                        match &amax[o] {
                            Some(a) => cat.extend_from_slice(&a[..self.shapes[o].0]),
                            None => ok = false,
                        }
                    }
                    cat.resize(cpad, 0.0);
                    ok.then_some(cat)
                }
                _ => None,
            };
        }
        amax
    }

    /// Rebuild every quantizable conv node's int8 state from the
    /// current folded f32 weights and the effective per-channel input
    /// amax (measured calibration maxima override the derived
    /// estimates). Runs at the end of [`Self::refold`], so allocation,
    /// `load_state_dict` and a hot weight reload all leave the int8
    /// weights consistent with the f32 parameters. No-op at f32.
    fn requantize(&mut self) {
        if self.precision() != Precision::Int8 {
            return;
        }
        self.derived_amax = self.derive_amax();
        for i in 0..self.layers.len() {
            let LayerState::Conv { layer, w, bias, folded, .. } = &self.layers[i] else {
                self.quant[i] = None;
                continue;
            };
            let Some(qplan) = layer.quant_plan() else {
                self.quant[i] = None;
                continue;
            };
            let bi = self.alias[self.etg.eng.preds[i][0]];
            let amax = self.calibrated_amax[bi].as_ref().or(self.derived_amax[bi].as_ref());
            let Some(amax) = amax else {
                self.quant[i] = None;
                continue;
            };
            // s_x = amax/127 per input channel; a degenerate (all-zero
            // or non-finite) channel gets the neutral scale 1.0 — its
            // activations are 0 (or garbage no scale could save), and
            // the scheme stays NaN- and divide-free
            let s_x: Vec<f32> = amax
                .iter()
                .map(|&a| if a > 0.0 && a.is_finite() { a / I8_QMAX } else { 1.0 })
                .collect();
            let inv_sx: Vec<f32> = s_x.iter().map(|&s| 1.0 / s).collect();
            let wsrc: &BlockedFilter = match folded {
                Some(f) => &f.w,
                None => w,
            };
            let (wq, mult) = VnniFilter::quantize_per_k(wsrc, &s_x);
            let zero_bias = (qplan.fused().needs_bias() && folded.is_none() && bias.is_none())
                .then(|| vec![0.0f32; wsrc.k.next_multiple_of(VLEN)]);
            self.quant[i] = Some(QuantState { wq, mult, inv_sx, zero_bias });
        }
    }

    /// Run one calibration forward over the currently loaded input
    /// batch: the f32 path executes end to end while the per-channel
    /// absolute maximum of every blob is recorded (max-accumulated
    /// across calls, so several batches sharpen one profile), then the
    /// int8 states are rebuilt against the measured ranges. Only
    /// meaningful — and only allowed — at [`Precision::Int8`].
    pub fn calibrate_batch(&mut self) {
        assert_eq!(
            self.precision(),
            Precision::Int8,
            "calibration needs an int8-precision network"
        );
        if self.labels.len() != self.minibatch {
            self.labels = vec![0; self.minibatch];
        }
        self.calibrating = true;
        for t in 0..self.etg.fwd.len() {
            let node = self.etg.fwd[t].node;
            self.forward_node(node);
            let owner = self.alias[node];
            if self.slot_of[owner] != usize::MAX {
                self.record_amax(owner);
            }
        }
        self.calibrating = false;
        self.requantize();
    }

    /// Max-accumulate the per-channel |activation| maxima of `owner`'s
    /// blob into the calibration profile.
    fn record_amax(&mut self, owner: usize) {
        let blob = &self.blobs[self.slot_of[owner]].as_ref().expect("blob in place").act;
        let cpad = blob.cb * VLEN;
        let entry = self.calibrated_amax[owner].get_or_insert_with(|| vec![0.0; cpad]);
        let row = blob.w * VLEN;
        for n in 0..blob.n {
            for (cb, amax) in entry.chunks_exact_mut(VLEN).enumerate() {
                // the interior rows' pixel vectors, skipping the padding
                for h in 0..blob.h {
                    let at = blob.pix_offset_logical(n, cb, h as isize, 0);
                    for px in blob.as_slice()[at..at + row].chunks_exact(VLEN) {
                        for (a, &x) in amax.iter_mut().zip(px) {
                            // `>` keeps a NaN from ever becoming the max
                            *a = if x.abs() > *a { x.abs() } else { *a };
                        }
                    }
                }
            }
        }
    }

    /// Number of convolution nodes currently executing the int8 path
    /// (0 at f32 precision). `quantized_conv_count / conv_node_count`
    /// is the int8 coverage the inference benchmark reports; nodes
    /// outside it fall back to their f32 plan.
    pub fn quantized_conv_count(&self) -> usize {
        self.quant.iter().filter(|q| q.is_some()).count()
    }

    /// The BN-derived per-channel input-amax estimate of node `name`'s
    /// output blob (`None` if underivable or at f32 precision).
    pub fn derived_amax_of(&self, name: &str) -> Option<&[f32]> {
        let i = self.node_index(name)?;
        self.derived_amax[self.alias[i]].as_deref()
    }

    /// The calibration-measured per-channel amax of node `name`'s
    /// output blob (`None` before any [`Self::calibrate_batch`]).
    pub fn calibrated_amax_of(&self, name: &str) -> Option<&[f32]> {
        let i = self.node_index(name)?;
        self.calibrated_amax[self.alias[i]].as_deref()
    }

    /// The per-input-channel quantization factors (`127/amax`) conv
    /// node `name` currently quantizes its input with (`None` when the
    /// node runs f32).
    pub fn conv_input_scales(&self, name: &str) -> Option<&[f32]> {
        let i = self.node_index(name)?;
        self.quant[i].as_ref().map(|q| &q.inv_sx[..])
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{inference, int8, residual_bn_spec, small_cnn, trained_residual};
    use super::*;
    use crate::parser::parse_topology;
    use crate::state::StateDict;
    use conv::PlanCache;
    use parallel::ThreadPool;
    use std::sync::Arc;
    use tensor::rng::SplitMix64;

    #[test]
    fn int8_inference_quantizes_every_bn_fed_conv_and_tracks_f32() {
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(3));
        let (sd, input, labels) = trained_residual(&pool, &cache);

        let mut f32_net =
            Network::build_with(&nl, 4, Arc::clone(&pool), inference(), &cache).unwrap();
        let mut int8 = Network::build_with(&nl, 4, Arc::clone(&pool), int8(), &cache).unwrap();
        assert_eq!(int8.precision(), Precision::Int8);
        assert_eq!(f32_net.precision(), Precision::F32);
        assert_eq!(f32_net.quantized_conv_count(), 0);
        // c0 reads the (assumed-normalized) input, c1/c2 read
        // folded-BN outputs: every conv derives an input scale
        assert_eq!(int8.conv_node_count(), 3);
        assert_eq!(int8.quantized_conv_count(), 3, "all three convs must run int8");
        f32_net.load_state_dict(&sd).unwrap();
        int8.load_state_dict(&sd).unwrap();
        f32_net.input_mut().as_mut_slice().copy_from_slice(&input);
        int8.input_mut().as_mut_slice().copy_from_slice(&input);
        f32_net.set_labels(&labels);
        int8.set_labels(&labels);
        let sf = f32_net.forward();
        let si = int8.forward();
        assert_eq!(sf.top1, si.top1, "top-1 must survive quantization");
        let n = tensor::Norms::compare(f32_net.probabilities(), int8.probabilities());
        assert!(n.ok(0.05), "int8 probability drift vs f32: {n}");
        // calibration replaces the derived estimates with measured
        // ranges; the net must stay quantized and stay close
        int8.calibrate_batch();
        assert_eq!(int8.quantized_conv_count(), 3);
        let si2 = int8.forward();
        assert_eq!(sf.top1, si2.top1);
        let n2 = tensor::Norms::compare(f32_net.probabilities(), int8.probabilities());
        assert!(n2.ok(0.05), "calibrated int8 drift vs f32: {n2}");
    }

    #[test]
    fn int8_unquantizable_convs_fall_back_to_f32() {
        // small_cnn's c2 reads a pooled *raw conv* output (c1 carries
        // its own bias+relu, no BN) — no derivable range, so c2 must
        // serve f32 until a calibration forward measures it
        let nl = small_cnn();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut int8 = Network::build_with(&nl, 2, Arc::clone(&pool), int8(), &cache).unwrap();
        assert_eq!(int8.conv_node_count(), 2);
        assert_eq!(int8.quantized_conv_count(), 1, "only the input-fed conv can derive scales");
        assert!(int8.conv_input_scales("c1").is_some());
        assert!(int8.conv_input_scales("c2").is_none());
        let mut rng = SplitMix64::new(43);
        rng.fill_f32(int8.input_mut().as_mut_slice());
        let s = int8.forward();
        assert!(s.loss.is_finite());
        // a calibration forward measures c2's input range → full
        // coverage without replanning
        int8.calibrate_batch();
        assert_eq!(int8.quantized_conv_count(), 2, "calibration must widen coverage");
        assert!(int8.conv_input_scales("c2").is_some());
        let s2 = int8.forward();
        assert!(s2.loss.is_finite());
    }

    #[test]
    fn calibrated_scales_agree_with_bn_derived_estimates() {
        // the BN-derived bound |beta| + 3·|gamma| models the frozen
        // stats; a measured maximum over an in-distribution batch must
        // land in the same ballpark (below the 3-sigma bound, not
        // orders of magnitude under it)
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let (sd, input, _) = trained_residual(&pool, &cache);
        let mut int8 = Network::build_with(&nl, 4, Arc::clone(&pool), int8(), &cache).unwrap();
        int8.load_state_dict(&sd).unwrap();
        int8.input_mut().as_mut_slice().copy_from_slice(&input);
        let derived = int8.derived_amax_of("b0").expect("b0 folds, range derives").to_vec();
        int8.calibrate_batch();
        let measured = int8.calibrated_amax_of("b0").expect("calibration recorded b0").to_vec();
        let dmax = derived.iter().cloned().fold(0.0f32, f32::max);
        let mmax = measured.iter().cloned().fold(0.0f32, f32::max);
        assert!(dmax > 0.0 && mmax > 0.0);
        let ratio = mmax / dmax;
        assert!(
            (0.05..=3.0).contains(&ratio),
            "measured max {mmax} vs derived bound {dmax}: ratio {ratio} out of tolerance"
        );
    }

    #[test]
    fn calibration_records_the_per_channel_max_of_the_interior() {
        // the input blob carries pad 1 (for the 3×3 conv) and 4 pad
        // lanes (c = 20); its measured amax is the per-channel max |x|
        // over the logical interior, and a NaN never becomes a maximum
        let nl = parse_topology(
            "input name=data c=20 h=5 w=6\n\
             conv name=c0 bottom=data k=16 r=3 s=3 pad=1\n\
             bn name=b0 bottom=c0 relu=1\n\
             gap name=g bottom=b0\n\
             fc name=logits bottom=g k=4\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let mut net = Network::build_with(&nl, 2, pool, int8(), &cache).unwrap();
        let x = net.input_mut();
        assert_eq!(x.pad, 1, "the scan must skip a physical border");
        let mut rng = SplitMix64::new(7);
        let mut want = [0.0f32; 2 * VLEN];
        for n in 0..2 {
            for c in 0..20 {
                for h in 0..5 {
                    for w in 0..6 {
                        let v = 4.0 * rng.next_f32() - 2.0;
                        x.set(n, c, h, w, v);
                        want[c] = want[c].max(v.abs());
                    }
                }
            }
        }
        x.set(1, 7, 4, 5, f32::NAN);
        want[7] = (0..2)
            .flat_map(|n| (0..5).flat_map(move |h| (0..6).map(move |w| (n, h, w))))
            .filter(|&p| p != (1, 4, 5))
            .map(|(n, h, w)| x.get(n, 7, h, w).abs())
            .fold(0.0, f32::max);
        net.calibrate_batch();
        assert_eq!(net.calibrated_amax_of("data").expect("input blob recorded"), &want[..]);
    }

    #[test]
    fn degenerate_all_zero_channel_yields_safe_scales() {
        // zero gamma+beta on one BN channel drives its activation —
        // and the derived amax — to exactly 0; the quantization scheme
        // must answer with the neutral scale 1.0, never NaN or inf
        let nl = residual_bn_spec();
        let cache = PlanCache::new();
        let pool = Arc::new(ThreadPool::new(2));
        let (sd, input, _) = trained_residual(&pool, &cache);
        let mut dead = StateDict::new();
        for (name, e) in sd.iter() {
            let mut data = e.data.clone();
            if name == "b0.gamma" || name == "b0.beta" {
                data[3] = 0.0;
            }
            dead.insert(name, e.dims.clone(), data).unwrap();
        }
        let mut int8 = Network::build_with(&nl, 4, Arc::clone(&pool), int8(), &cache).unwrap();
        int8.load_state_dict(&dead).unwrap();
        assert_eq!(int8.derived_amax_of("b0").unwrap()[3], 0.0, "channel 3 is dead");
        let scales = int8.conv_input_scales("c1").expect("c1 still quantizes");
        assert!(scales.iter().all(|s| s.is_finite() && *s > 0.0), "scales must stay safe");
        assert_eq!(scales[3], 1.0, "dead channel gets the neutral scale");
        // and the whole net still forwards to finite probabilities —
        // also after a calibration pass re-measures the dead channel
        int8.input_mut().as_mut_slice().copy_from_slice(&input);
        assert!(int8.forward().loss.is_finite());
        int8.calibrate_batch();
        let scales = int8.conv_input_scales("c1").unwrap();
        assert!(scales.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(int8.forward().loss.is_finite());
    }
}
