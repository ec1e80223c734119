//! Portable-float fixture: lines 7-15 hold every banned form the golden
//! test pins; everything after line 15 is a lookalike that must not fire,
//! plus one suppressed call.

pub fn payments(a: f64, b: f64, c: f64, v: &[f64]) -> f64 {
    let mut q = 0.0;
    q += a.mul_add(b, c);
    q += a.powf(b) + a.powi(3);
    q += a.exp() + b.ln();
    q += f64::log10(a) + a.log(b);
    q += a.sin() + b.tanh();
    q += a.cbrt() + f64::hypot(a, b);
    let logs: Vec<f64> = v.iter().copied()
        .map(f64::exp_m1)
        .map(f32::ln_1p as fn(f64) -> f64).collect();
    // Lookalikes: correctly rounded or not a float call at all.
    q += a.sqrt() + a.abs() + (a * b + c) / 2.0;
    let r = Rates { exp: 2.0, log: 1.0 };
    q += r.exp + r.log;
    q += exp(a) + ln(b);
    log::info!("{}", q.to_bits());
    let x: Option<f64> = Some(q);
    q += x.unwrap_or_default().max(0.0).exponent_bits();
    // "a.powf(b)" inside a string or comment: a.mul_add(b, c)
    let _ = "a.powf(b)";
    q += a.mul_add(b, c); // dls-lint: allow(portable-float) -- fixture: a suppressed call counts once
    q + logs.len() as f64
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_use_libm() {
        assert!((2.0f64.powf(0.5) - 2.0f64.sqrt()).abs() < 1e-12);
    }
}
