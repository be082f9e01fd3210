//! The parameter schema — the one list of the tensors each layer owns
//! — and everything built on it: the parameter count, state-dict
//! export and import, and the validator hot-swap publication shares.

use super::{LayerState, Network};
use crate::error::Error;
use crate::state::StateDict;
use std::collections::HashSet;
use tensor::{BlockedFilter, VLEN};

/// The layer storage behind one schema tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Field {
    /// A conv filter (blocked, exported `[k][c][r][s]`) or an FC
    /// matrix (`[c_in][k_out]` inside a lane-padded `[in][out]`).
    Weight,
    Bias,
    Gamma,
    Beta,
    RunningMean,
    RunningVar,
}

impl Field {
    /// The name suffix in the state dict.
    fn suffix(self) -> &'static str {
        match self {
            Field::Weight => "weight",
            Field::Bias => "bias",
            Field::Gamma => "gamma",
            Field::Beta => "beta",
            Field::RunningMean => "running_mean",
            Field::RunningVar => "running_var",
        }
    }

    /// The canonical value of the SIMD padding lanes: the BN identity
    /// (gamma 1, variance 1) keeps padded channels exactly zero.
    fn pad_value(self) -> f32 {
        match self {
            Field::Gamma | Field::RunningVar => 1.0,
            _ => 0.0,
        }
    }

    /// Whether SGD trains the tensor (the BN running statistics are
    /// accumulated, not trained).
    fn trainable(self) -> bool {
        !matches!(self, Field::RunningMean | Field::RunningVar)
    }
}

/// One tensor of the schema.
#[derive(Clone, Debug)]
struct ParamSpec {
    node: usize,
    field: Field,
    name: String,
    /// Logical dims: no SIMD lane padding.
    dims: Vec<usize>,
}

impl ParamSpec {
    /// Logical row length (the last dim).
    fn cols(&self) -> usize {
        *self.dims.last().expect("tensors have at least one dim")
    }

    /// Logical row count (the product of the leading dims).
    fn rows(&self) -> usize {
        self.dims[..self.dims.len() - 1].iter().product()
    }

    /// Row stride of the flat storage: rows are padded to whole SIMD
    /// vectors.
    fn stride(&self) -> usize {
        self.cols().next_multiple_of(VLEN)
    }
}

/// The parameter schema of a network: the name and logical dims of
/// every tensor its [`StateDict`] holds. [`Network::load_state_dict`]
/// and a serving frontend's weight publication both check candidate
/// dicts with [`Self::validate`].
#[derive(Clone, Debug)]
pub struct ParamSchema {
    params: Vec<ParamSpec>,
}

impl ParamSchema {
    /// Check that `sd` holds exactly the schema's tensors: every one
    /// present with its dims, and no other name.
    ///
    /// # Errors
    /// [`Error::StateDict`] naming the first missing, mis-shaped or
    /// unexpected tensor.
    pub fn validate(&self, sd: &StateDict) -> Result<(), Error> {
        for p in &self.params {
            match sd.get(&p.name) {
                None => return Err(Error::StateDict(format!("missing tensor '{}'", p.name))),
                Some(e) if e.dims != p.dims => {
                    return Err(Error::StateDict(format!(
                        "tensor '{}': dims {:?} do not match the network's {:?}",
                        p.name, e.dims, p.dims
                    )))
                }
                Some(_) => {}
            }
        }
        let known: HashSet<&str> = self.params.iter().map(|p| p.name.as_str()).collect();
        if let Some(stranger) = sd.names().find(|n| !known.contains(n)) {
            return Err(Error::StateDict(format!(
                "unexpected tensor '{stranger}' (not a parameter of this network)"
            )));
        }
        Ok(())
    }
}

impl LayerState {
    /// The flat, lane-padded storage of `field` (every field but a
    /// conv filter): `[rows][stride]` row-major.
    fn flat(&self, field: Field) -> &[f32] {
        match (self, field) {
            (LayerState::Conv { bias: Some(b), .. }, Field::Bias) => &b.w,
            (LayerState::Fc { w, .. }, Field::Weight) => &w.w,
            (LayerState::Fc { b, .. }, Field::Bias) => &b.w,
            (LayerState::Bn { gamma, .. }, Field::Gamma) => &gamma.w,
            (LayerState::Bn { beta, .. }, Field::Beta) => &beta.w,
            (LayerState::Bn { running_mean, .. }, Field::RunningMean) => running_mean,
            (LayerState::Bn { running_var, .. }, Field::RunningVar) => running_var,
            _ => panic!("no flat {field:?} storage on this layer"),
        }
    }

    /// Mutable [`Self::flat`].
    fn flat_mut(&mut self, field: Field) -> &mut [f32] {
        match (self, field) {
            (LayerState::Conv { bias: Some(b), .. }, Field::Bias) => &mut b.w,
            (LayerState::Fc { w, .. }, Field::Weight) => &mut w.w,
            (LayerState::Fc { b, .. }, Field::Bias) => &mut b.w,
            (LayerState::Bn { gamma, .. }, Field::Gamma) => &mut gamma.w,
            (LayerState::Bn { beta, .. }, Field::Beta) => &mut beta.w,
            (LayerState::Bn { running_mean, .. }, Field::RunningMean) => running_mean,
            (LayerState::Bn { running_var, .. }, Field::RunningVar) => running_var,
            _ => panic!("no flat {field:?} storage on this layer"),
        }
    }
}

impl Network {
    /// The exact tensor inventory (name, logical dims) the network
    /// exports and imports — the one list of each layer's tensors that
    /// [`Self::param_count`], [`Self::state_dict`] and
    /// [`Self::load_state_dict`] all iterate.
    pub fn param_schema(&self) -> ParamSchema {
        let mut params = Vec::new();
        for (node, layer) in self.layers.iter().enumerate() {
            let c = self.shapes[node].0;
            let fields: Vec<(Field, Vec<usize>)> = match layer {
                LayerState::Conv { w, bias, .. } => {
                    let mut f = vec![(Field::Weight, vec![w.k, w.c, w.r, w.s])];
                    if bias.is_some() {
                        f.push((Field::Bias, vec![w.k]));
                    }
                    f
                }
                LayerState::Bn { .. } => {
                    [Field::Gamma, Field::Beta, Field::RunningMean, Field::RunningVar]
                        .map(|f| (f, vec![c]))
                        .into()
                }
                LayerState::Fc { .. } => {
                    let c_in = self.shapes[self.alias[self.etg.eng.preds[node][0]]].0;
                    vec![(Field::Weight, vec![c_in, c]), (Field::Bias, vec![c])]
                }
                _ => Vec::new(),
            };
            let prefix = self.etg.eng.nodes[node].name();
            params.extend(fields.into_iter().map(|(field, dims)| ParamSpec {
                node,
                field,
                name: format!("{prefix}.{}", field.suffix()),
                dims,
            }));
        }
        ParamSchema { params }
    }

    /// Number of trainable parameters (logical, without lane padding).
    pub fn param_count(&self) -> usize {
        let schema = self.param_schema();
        schema
            .params
            .iter()
            .filter(|p| p.field.trainable())
            .map(|p| p.dims.iter().product::<usize>())
            .sum()
    }

    /// Gradient bytes exchanged per step under data parallelism (the
    /// allreduce payload of Fig. 9).
    pub fn gradient_bytes(&self) -> f64 {
        self.param_count() as f64 * 4.0
    }

    /// Export every parameter (and BN running statistic) as a named
    /// [`StateDict`] in dense logical layout. Extraction copies bits
    /// out of the blocked storage without arithmetic, so
    /// [`Self::load_state_dict`] of the result is bit-exact.
    pub fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        for p in self.param_schema().params {
            let data = match &self.layers[p.node] {
                LayerState::Conv { w, .. } if p.field == Field::Weight => {
                    w.to_kcrs().as_slice().to_vec()
                }
                layer => {
                    let rows = layer.flat(p.field).chunks(p.stride()).take(p.rows());
                    rows.flat_map(|row| &row[..p.cols()]).copied().collect()
                }
            };
            sd.insert(&p.name, p.dims, data).expect("export geometry is self-consistent");
        }
        sd
    }

    /// Import a [`StateDict`] previously exported from a network of
    /// the same topology (any [`ExecMode`](super::ExecMode) on either
    /// side).
    ///
    /// Strict by design: every expected tensor must be present with
    /// matching dims and no unknown names may remain
    /// ([`ParamSchema::validate`]) — and validation runs *before* any
    /// write, so a failed load leaves the network untouched. Imported
    /// buffers are re-canonicalized (SIMD-lane padding zeroed, BN
    /// gamma padding reset to 1) so a reloaded network is
    /// indistinguishable from the one that was saved.
    pub fn load_state_dict(&mut self, sd: &StateDict) -> Result<(), Error> {
        let schema = self.param_schema();
        schema.validate(sd)?;
        for p in &schema.params {
            let src = &sd.get(&p.name).expect("validated").data;
            match &mut self.layers[p.node] {
                LayerState::Conv { w, .. } if p.field == Field::Weight => {
                    *w = BlockedFilter::from_kcrs_iter(w.k, w.c, w.r, w.s, src.iter().copied());
                }
                layer => {
                    let dst = layer.flat_mut(p.field);
                    dst.fill(p.field.pad_value());
                    for (row, s) in dst.chunks_mut(p.stride()).zip(src.chunks(p.cols())) {
                        row[..s.len()].copy_from_slice(s);
                    }
                }
            }
        }
        // the imported conv weights / BN parameters invalidate every
        // folded convolution — re-derive (no-op without folds)
        self.refold();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_cnn;
    use super::*;
    use crate::parser::parse_topology;
    use tensor::rng::SplitMix64;

    #[test]
    fn param_count_is_sane() {
        let net = Network::build(&small_cnn(), 2, 2).unwrap();
        // c1: 32*16*9 + 32, c2: 32*32 + 32, fc: 32*16(padded)… > 5k
        assert!(net.param_count() > 5_000, "{}", net.param_count());
    }

    #[test]
    fn state_dict_round_trips_bit_exact_after_training() {
        let spec = small_cnn();
        let mut net = Network::build(&spec, 4, 2).unwrap();
        let mut rng = SplitMix64::new(21);
        let mut input = vec![0.0f32; net.input_mut().as_slice().len()];
        rng.fill_f32(&mut input);
        let labels = vec![0usize, 1, 2, 3];
        for _ in 0..3 {
            net.input_mut().as_mut_slice().copy_from_slice(&input);
            net.train_step(&labels, 0.05, 0.9);
        }
        let sd = net.state_dict();
        // serialize through the binary format too
        let sd = StateDict::from_bytes(&sd.to_bytes()).unwrap();
        let mut twin = Network::build(&spec.clone().with_seed(999), 4, 2).unwrap();
        twin.load_state_dict(&sd).unwrap();
        net.input_mut().as_mut_slice().copy_from_slice(&input);
        twin.input_mut().as_mut_slice().copy_from_slice(&input);
        net.set_labels(&labels);
        twin.set_labels(&labels);
        let a = net.forward();
        let b = twin.forward();
        assert_eq!(a.loss, b.loss, "reloaded forward must be bit-identical");
        assert_eq!(net.probabilities(), twin.probabilities());
        // and the reloaded network exports the identical dict
        assert_eq!(twin.state_dict(), sd);
    }

    #[test]
    fn load_state_dict_is_strict_and_atomic() {
        let spec = small_cnn();
        let mut net = Network::build(&spec, 2, 1).unwrap();
        let good = net.state_dict();
        // missing tensor
        let mut missing = StateDict::new();
        for (name, e) in good.iter() {
            if name != "c1.weight" {
                missing.insert(name, e.dims.clone(), e.data.clone()).unwrap();
            }
        }
        let e = net.load_state_dict(&missing).unwrap_err();
        assert!(e.to_string().contains("missing tensor 'c1.weight'"), "{e}");
        // unexpected tensor
        let mut extra = good.clone();
        extra.insert("ghost.weight", vec![1], vec![0.0]).unwrap();
        assert!(net.load_state_dict(&extra).is_err());
        // wrong dims — and the failed load must not have clobbered
        // anything (validation precedes writes)
        let mut wrong = good.clone();
        wrong.insert("c1.bias", vec![3], vec![0.0; 3]).unwrap();
        assert!(net.load_state_dict(&wrong).is_err());
        assert_eq!(net.state_dict(), good, "failed loads must leave the network untouched");
    }

    #[test]
    fn param_count_is_logical_without_lane_padding() {
        // c = 20 and k = 10 both leave SIMD padding lanes in storage;
        // the count covers exactly the exported trainable tensors
        let nl = parse_topology(
            "input name=data c=20 h=4 w=4\n\
             conv name=c0 bottom=data k=20 bias=1\n\
             bn name=b0 bottom=c0 relu=1\n\
             gap name=g bottom=b0\n\
             fc name=logits bottom=g k=10\n\
             softmaxloss name=loss bottom=logits\n",
        )
        .unwrap();
        let net = Network::build(&nl, 2, 1).unwrap();
        let sd = net.state_dict();
        let elems = |keep: &dyn Fn(&str) -> bool| -> usize {
            sd.iter().filter(|(n, _)| keep(n)).map(|(_, e)| e.data.len()).sum()
        };
        let running = elems(&|n| n.ends_with(".running_mean") || n.ends_with(".running_var"));
        assert_eq!(net.param_count(), elems(&|_| true) - running);
        assert_eq!(net.param_count(), (20 * 20 + 20) + 2 * 20 + (20 * 10 + 10));
        assert_eq!(net.gradient_bytes(), net.param_count() as f64 * 4.0);
    }
}
