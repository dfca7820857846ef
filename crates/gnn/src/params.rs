//! Learnable parameter storage and the Adam optimiser.

use lisa_rng::Rng;

use crate::Tensor;

/// Handle to one learnable tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Raw index of the parameter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Reconstructs a [`ParamId`] from its dense index. Parameter ids are
/// allocation-ordered, so serialisation (`crate::io`) can walk a store by
/// index; models should keep the ids returned by [`ParamStore::alloc`].
pub(crate) fn param_id_for_io(index: usize) -> ParamId {
    ParamId(index)
}

/// A detached set of per-parameter gradient accumulators, shaped like a
/// [`ParamStore`]'s parameters.
///
/// The trainer runs every micro-batch unit's backward pass
/// ([`crate::Graph::backward_into`]) into one of these, re-zeroed per
/// unit, and adds it to the store before the next unit: the per-unit
/// partial sums are the fixed summation tree the pinned weights rest on.
#[derive(Debug, Clone, Default)]
pub struct ParamGrads {
    grads: Vec<Tensor>,
}

impl ParamGrads {
    /// Creates zeroed accumulators matching the store's parameter shapes.
    pub fn zeros_like(store: &ParamStore) -> Self {
        ParamGrads {
            grads: store
                .values
                .iter()
                .map(|v| Tensor::zeros(v.rows(), v.cols()))
                .collect(),
        }
    }

    /// Re-zeroes in place (allocating only if the store grew), so a
    /// long-lived sink is reused across batches without reallocation.
    pub fn reset_like(&mut self, store: &ParamStore) {
        if self.grads.len() != store.values.len() {
            *self = ParamGrads::zeros_like(store);
            return;
        }
        for (g, v) in self.grads.iter_mut().zip(&store.values) {
            g.reset_zeroed(v.rows(), v.cols());
        }
    }

    /// The accumulated gradient of one parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Adds to one parameter's accumulator (called by backward).
    pub(crate) fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].add_assign(delta);
    }
}

/// Owns every learnable tensor of a model, its gradient accumulator, and
/// the Adam moment estimates.
#[derive(Debug, Clone)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    rng: Rng,
}

impl ParamStore {
    /// Creates an empty store whose weight initialisation draws from the
    /// given seed.
    pub fn new(seed: u64) -> Self {
        ParamStore {
            values: Vec::new(),
            grads: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// Allocates a parameter with Xavier/Glorot-uniform initialisation.
    pub fn alloc(&mut self, rows: usize, cols: usize) -> ParamId {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| self.rng.gen_range(-bound..bound))
            .collect();
        self.alloc_with(Tensor::from_vec(rows, cols, data))
    }

    /// Allocates a parameter with explicit initial values.
    pub fn alloc_with(&mut self, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.m.push(Tensor::zeros(value.rows(), value.cols()));
        self.v.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(value);
        id
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Current gradient accumulator of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Overwrites a parameter's value, preserving its shape. Used by tests
    /// (finite-difference checks) and model import.
    ///
    /// # Panics
    ///
    /// Panics if the replacement's shape differs.
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        let old = &self.values[id.0];
        assert_eq!(
            (old.rows(), old.cols()),
            (value.rows(), value.cols()),
            "shape mismatch"
        );
        self.values[id.0] = value;
    }

    /// Adds a detached gradient sink into the store's accumulators (the
    /// trainer's per-unit reduction step).
    ///
    /// # Panics
    ///
    /// Panics if `other` was shaped for a different store.
    pub fn add_grads(&mut self, other: &ParamGrads) {
        assert_eq!(self.grads.len(), other.grads.len(), "param count mismatch");
        for (g, o) in self.grads.iter_mut().zip(&other.grads) {
            g.add_assign(o);
        }
    }

    /// Clears all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            let (r, c) = (g.rows(), g.cols());
            g.reset_zeroed(r, c);
        }
    }

    /// Scales every gradient accumulator (used to average over a batch).
    pub fn scale_grads(&mut self, k: f64) {
        for g in &mut self.grads {
            *g = g.scale(k);
        }
    }

    /// Number of parameters tensors (not elements).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights.
    pub fn weight_count(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }
}

/// Adam with decoupled weight decay, matching the paper's training recipe
/// (lr 0.001, weight decay 0.0005, §VI-B).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f64,
    t: u64,
}

impl Adam {
    /// Creates the optimiser with the paper's hyperparameters.
    pub fn paper() -> Self {
        Adam::new(1e-3, 5e-4)
    }

    /// Creates the optimiser with a custom learning rate and weight decay.
    pub fn new(lr: f64, weight_decay: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
        }
    }

    /// Applies one update step from the accumulated gradients, then clears
    /// them.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..store.values.len() {
            let n = store.values[i].len();
            for k in 0..n {
                let g = store.grads[i].data()[k];
                let m = self.beta1 * store.m[i].data()[k] + (1.0 - self.beta1) * g;
                let v = self.beta2 * store.v[i].data()[k] + (1.0 - self.beta2) * g * g;
                store.m[i].data_mut()[k] = m;
                store.v[i].data_mut()[k] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                let w = store.values[i].data()[k];
                store.values[i].data_mut()[k] =
                    w - self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * w);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read() {
        let mut s = ParamStore::new(0);
        let id = s.alloc(3, 2);
        assert_eq!(s.value(id).rows(), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.weight_count(), 6);
        // Xavier init stays in bound.
        let bound = (6.0 / 5.0f64).sqrt();
        assert!(s.value(id).data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn init_is_seeded() {
        let mut a = ParamStore::new(7);
        let mut b = ParamStore::new(7);
        assert_eq!(a.alloc(4, 4), b.alloc(4, 4));
        let (pa, pb) = (ParamId(0), ParamId(0));
        assert_eq!(a.value(pa), b.value(pb));
    }

    #[test]
    fn adam_minimises_a_quadratic() {
        // Minimise f(w) = (w - 3)^2 by feeding grad = 2(w - 3).
        let mut s = ParamStore::new(1);
        let id = s.alloc_with(Tensor::scalar(0.0));
        let mut adam = Adam::new(0.1, 0.0);
        let mut grads = ParamGrads::zeros_like(&s);
        for _ in 0..500 {
            let w = s.value(id).item();
            grads.reset_like(&s);
            grads.accumulate(id, &Tensor::scalar(2.0 * (w - 3.0)));
            s.add_grads(&grads);
            adam.step(&mut s);
        }
        assert!((s.value(id).item() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut s = ParamStore::new(1);
        let id = s.alloc_with(Tensor::scalar(1.0));
        let mut adam = Adam::new(0.01, 0.5);
        for _ in 0..200 {
            // Zero task gradient: only decay acts.
            adam.step(&mut s);
        }
        assert!(s.value(id).item().abs() < 0.5);
    }

    #[test]
    fn zero_grads_resets() {
        let mut s = ParamStore::new(0);
        let id = s.alloc_with(Tensor::scalar(1.0));
        let mut grads = ParamGrads::zeros_like(&s);
        grads.accumulate(id, &Tensor::scalar(2.0));
        s.add_grads(&grads);
        assert_eq!(s.grad(id).item(), 2.0);
        s.zero_grads();
        assert_eq!(s.grad(id).item(), 0.0);
    }
}
