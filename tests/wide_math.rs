//! Accuracy harness for the wide transcendental kernels.
//!
//! `nfv_sim::simd::{wide_ln, wide_exp, wide_pow}` replace `std`'s `ln` /
//! `exp` / `powf` inside the M/M/1/K loss pass. They follow the `WideLane`
//! bit-equality contract (scalar and 8-wide instantiations agree
//! bit-for-bit), but they are *not* bit-identical to `std` — this harness
//! pins how far they drift, in ulps, over the loss pass's whole input
//! domain: log-spaced ρ ∈ [1e-9, 1e4] and K ∈ {1..512}, plus the subnormal
//! and overflow edges. The bounds asserted here are measured maxima with
//! ~2× slack; if a kernel change pushes past them, the numerics moved and
//! the goldens need a fresh look.
//!
//! Measured on the blessing run (see ARCHITECTURE.md "error budget"):
//! `wide_ln` ≤ 2 ulp, `wide_exp` ≤ 1 ulp, `wide_pow` ≤ 915 ulp worst-case
//! (at K = 508) — the expected `|K·ln ρ|` amplification, still ≈ 2e-13
//! relative.

use nfv_sim::simd::{wide_exp, wide_ln, wide_pow, F64x8, WideLane, WIDTH};

/// Maps a float onto the integer number line so that ulp distance is plain
/// integer distance (the usual monotone bit trick; signed zeros are 1 apart).
fn ordered(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
        0
    } else if a.is_nan() || b.is_nan() {
        u64::MAX
    } else {
        ordered(a).abs_diff(ordered(b))
    }
}

/// Log-spaced grid over [lo, hi], `n` points, endpoints included.
fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

const RHO_LO: f64 = 1e-9;
const RHO_HI: f64 = 1e4;
const GRID: usize = 20_001;

#[test]
fn wide_ln_stays_within_ulp_budget_on_rho_domain() {
    let mut worst = 0u64;
    let mut at = 0.0;
    for rho in log_grid(RHO_LO, RHO_HI, GRID) {
        let d = ulp_diff(wide_ln(rho), rho.ln());
        if d > worst {
            worst = d;
            at = rho;
        }
    }
    // Near ρ = 1 the centered polynomial carries full precision too.
    for i in -2000i32..=2000 {
        let rho = 1.0 + f64::from(i) * 1e-15;
        let d = ulp_diff(wide_ln(rho), rho.ln());
        if d > worst {
            worst = d;
            at = rho;
        }
    }
    eprintln!("measured wide_ln max ulp = {worst} at rho = {at:e}");
    assert!(
        worst <= 4,
        "wide_ln drifted {worst} ulp from std at rho = {at:e}"
    );
}

#[test]
fn wide_ln_handles_subnormals_and_edges() {
    // Subnormals go through the 2^64 pre-scale; bound them separately.
    let mut worst = 0u64;
    for e in 0..52 {
        let x = f64::from_bits(1u64 << e); // smallest subnormals upward
        worst = worst.max(ulp_diff(wide_ln(x), x.ln()));
    }
    assert!(worst <= 4, "wide_ln subnormal drift {worst} ulp");

    assert_eq!(wide_ln(f64::INFINITY), f64::INFINITY);
    assert!(wide_ln(f64::NAN).is_nan());
    // Documented divergence from std: non-positive input is NaN, not -inf.
    assert!(wide_ln(0.0f64).is_nan());
    assert!(wide_ln(-1.0f64).is_nan());
    assert_eq!(wide_ln(1.0f64), 0.0);
}

#[test]
fn wide_exp_stays_within_ulp_budget_on_reduced_domain() {
    // The kernel's live domain is [-708, ~709.8]: below -708 it flushes to
    // exact +0 (subnormal multiplies cost a ~100-cycle assist per lane and
    // the loss model cannot tell 1e-310 from 0), above ~709.8 it overflows
    // to +inf like std.
    let mut worst = 0u64;
    for i in 0..40_001 {
        let t = -708.0 + 1418.0 * f64::from(i) / 40_000.0;
        worst = worst.max(ulp_diff(wide_exp(t), t.exp()));
    }
    eprintln!("measured wide_exp max ulp = {worst} (live domain)");
    assert!(worst <= 4, "wide_exp drift {worst} ulp on [-708, 710]");
}

#[test]
fn wide_exp_overflow_and_underflow_guards() {
    assert_eq!(wide_exp(710.0f64), f64::INFINITY);
    assert_eq!(wide_exp(1e300f64), f64::INFINITY);
    assert_eq!(wide_exp(f64::INFINITY), f64::INFINITY);
    assert!(wide_exp(f64::NAN).is_nan());
    assert_eq!(wide_exp(0.0f64), 1.0);
    // Flush-to-zero below -708: exact +0, never a subnormal.
    for t in [-708.5f64, -746.0, -1e300, f64::NEG_INFINITY] {
        assert_eq!(wide_exp(t).to_bits(), 0.0f64.to_bits(), "t = {t}");
    }
    // The whole live domain produces normal doubles — no subnormal ever
    // escapes the kernel (that's the perf guarantee the flush buys).
    for i in 0..10_000 {
        let t = -708.0 + 708.0 * f64::from(i) / 10_000.0;
        assert!(wide_exp(t).is_normal(), "subnormal escaped at t = {t}");
    }
}

#[test]
fn wide_pow_stays_within_ulp_budget_over_rho_k_domain() {
    // pow(ρ, K) = exp(K·ln ρ) amplifies the ln rounding by |K·ln ρ|; with
    // K ≤ 512 and non-under/overflowing results (|K·ln ρ| ≤ ~709) the
    // worst case is ~|t| ulp ≈ 1e-13 relative. Measure and pin.
    let mut worst = 0u64;
    let mut at = (0.0, 0.0);
    for rho in log_grid(RHO_LO, RHO_HI, 2_001) {
        for k in 1..=512u32 {
            let kf = f64::from(k);
            let expect = rho.powf(kf);
            let got = wide_pow(rho, kf);
            let t = kf * rho.ln();
            if t < -707.5 {
                // At/below the flush threshold (±0.5 slack for the kernels'
                // own rounding of t): exact +0 or, right at the seam, a
                // value no bigger than exp(-707.5) ≈ 5.5e-308 — the scale
                // of the smallest results the flush discards. Either way
                // the loss model cannot see it.
                assert!(
                    got <= 6e-308,
                    "pow({rho:e}, {kf}) = {got:e}, expected flush (t = {t})"
                );
            } else if expect.is_normal() {
                let d = ulp_diff(got, expect);
                if d > worst {
                    worst = d;
                    at = (rho, kf);
                }
            } else if expect.is_infinite() {
                assert!(
                    got > 1e290,
                    "pow({rho:e}, {kf}) = {got:e}, expected overflow"
                );
            }
        }
    }
    eprintln!("measured wide_pow max ulp = {worst} at (rho, k) = {at:?}");
    assert!(
        worst <= 2_000,
        "wide_pow drifted {worst} ulp from std at (rho, k) = {at:?}"
    );
}

/// The harness must hold at every wide/tail split the batch kernel can
/// produce: sweep columns of the straddling lane counts through the 8-wide
/// kernel (full bundles + scalar tail, exactly like the batch pass) and
/// require bit-identity with the scalar instantiation.
#[test]
fn wide_tail_split_is_bit_exact_at_straddling_lane_counts() {
    for lanes in [1usize, 7, 8, 9, 63, 65] {
        let xs: Vec<f64> = (0..lanes)
            .map(|i| RHO_LO * 1.9f64.powi(i as i32 % 40) + i as f64 * 1e-3)
            .collect();
        let ks: Vec<f64> = (0..lanes)
            .map(|i| f64::from(1 + (i as u32 * 37) % 512))
            .collect();

        let mut got_ln = vec![0.0; lanes];
        let mut got_exp = vec![0.0; lanes];
        let mut got_pow = vec![0.0; lanes];
        let mut i = 0;
        while i + WIDTH <= lanes {
            let x = F64x8::load(&xs, i);
            let k = F64x8::load(&ks, i);
            wide_ln(x).store(&mut got_ln, i);
            wide_exp(wide_ln(x)).store(&mut got_exp, i);
            wide_pow(x, k).store(&mut got_pow, i);
            i += WIDTH;
        }
        while i < lanes {
            got_ln[i] = wide_ln(xs[i]);
            got_exp[i] = wide_exp(wide_ln(xs[i]));
            got_pow[i] = wide_pow(xs[i], ks[i]);
            i += 1;
        }

        for j in 0..lanes {
            assert_eq!(
                got_ln[j].to_bits(),
                wide_ln(xs[j]).to_bits(),
                "ln lane {j} of {lanes}"
            );
            assert_eq!(
                got_exp[j].to_bits(),
                wide_exp(wide_ln(xs[j])).to_bits(),
                "exp lane {j} of {lanes}"
            );
            assert_eq!(
                got_pow[j].to_bits(),
                wide_pow(xs[j], ks[j]).to_bits(),
                "pow lane {j} of {lanes}"
            );
        }
    }
}
