//! Correctness oracles. The truth comes from an exact sliding-window
//! counter written here, over the generated events, and not from
//! `waves-core`. The checks are the properties the method promises:
//! the Theorem 1 bracket, the monitor's slack contract, replica
//! agreement, and recovered state equal to the synced stream.

use waves_core::{Bits, Estimate};

/// Exact count of ones among the newest `window` bits of a stream given
/// as its events, newest first.
pub fn exact_count<'a>(newest_first: impl IntoIterator<Item = &'a Bits>, window: u64) -> u64 {
    let mut need = window;
    let mut ones = 0;
    for bits in newest_first {
        if need == 0 {
            break;
        }
        let take = need.min(bits.len());
        ones += ones_in(bits, bits.len() - take, bits.len());
        need -= take;
    }
    ones
}

/// Ones among bit positions `lo..hi` (LSB-first within little-endian
/// words, as `Bits` stores them).
fn ones_in(bits: &Bits, lo: u64, hi: u64) -> u64 {
    let mut ones = 0;
    let mut i = lo;
    while i < hi {
        let (w, off) = ((i / 64) as usize, i % 64);
        let span = (64 - off).min(hi - i);
        let mask = if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << off
        };
        ones += (bits.words()[w] & mask).count_ones() as u64;
        i += span;
    }
    ones
}

/// Theorem 1: the certified interval holds the truth and the point
/// estimate is within relative error `eps`.
pub fn theorem1(est: &Estimate, truth: u64, eps: f64) -> Result<(), String> {
    let t = truth as f64;
    if est.lo > truth || truth > est.hi || (est.value - t).abs() > eps * t + 1e-9 {
        return Err(format!(
            "estimate {} in [{}, {}] misses truth {truth} at eps {eps}",
            est.value, est.lo, est.hi
        ));
    }
    Ok(())
}

/// The push-mode monitor's always-valid contract:
/// `|answer - truth| <= eps_syn * truth + slack_total`.
pub fn slack_contract(
    answer: f64,
    truth: u64,
    eps_syn: f64,
    slack_total: f64,
) -> Result<(), String> {
    let t = truth as f64;
    if (answer - t).abs() > eps_syn * t + slack_total + 1e-6 {
        return Err(format!(
            "combined answer {answer} misses truth {truth} by more than {eps_syn}*truth + {slack_total}"
        ));
    }
    Ok(())
}

/// Two answers for the same key and window must be identical: a
/// follower after a replication round against its primary, or a
/// recovered server against a synopsis fed the synced stream.
pub fn agree(a: &Estimate, b: &Estimate, what: &str) -> Result<(), String> {
    if a != b {
        return Err(format!("{what}: {a:?} != {b:?}"));
    }
    Ok(())
}

/// Feed each check an answer it must accept and a perturbed one it must
/// reject. Every run calls this first, so a check that passes anything
/// cannot go unnoticed.
pub fn self_test() -> Result<(), String> {
    let bits = Bits::from_words(vec![0b1011, 1 << 63], 128);
    let newer = Bits::from_words(vec![0b1], 3);
    let hist = [&newer, &bits];
    for (w, want) in [(3u64, 1), (67, 2), (200, 5)] {
        let got = exact_count(hist, w);
        if got != want {
            return Err(format!("exact counter: window {w} gave {got}, want {want}"));
        }
    }
    let truth = 100;
    let good = Estimate {
        value: 104.0,
        lo: 95,
        hi: 110,
        exact: false,
    };
    theorem1(&good, truth, 0.05)?;
    let perturbed = [
        Estimate {
            value: 106.0,
            ..good
        },
        Estimate { lo: 101, ..good },
        Estimate { hi: 99, ..good },
    ];
    for bad in perturbed {
        if theorem1(&bad, truth, 0.05).is_ok() {
            return Err(format!("theorem1 accepted perturbed answer {bad:?}"));
        }
    }
    slack_contract(112.0, truth, 0.05, 7.0)?;
    if slack_contract(112.5, truth, 0.05, 7.0).is_ok() {
        return Err("slack contract accepted a perturbed answer".into());
    }
    agree(&good, &good, "self")?;
    if agree(
        &good,
        &Estimate {
            value: 104.5,
            ..good
        },
        "self",
    )
    .is_ok()
    {
        return Err("replica agreement accepted a perturbed answer".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_accept_true_answers_and_reject_perturbed_ones() {
        self_test().unwrap();
    }

    #[test]
    fn exact_counter_matches_a_bit_by_bit_count() {
        let mut rng = crate::input::Rng::new(7, 1);
        let events: Vec<Bits> = (0..20).map(|i| rng.bits(1 + i * 13, 0.3)).collect();
        let flat: Vec<bool> = events.iter().flat_map(|b| b.iter()).collect();
        for w in [0u64, 1, 5, 64, 65, 300, 5000] {
            let want = flat.iter().rev().take(w as usize).filter(|&&b| b).count() as u64;
            assert_eq!(exact_count(events.iter().rev(), w), want, "window {w}");
        }
    }

    #[test]
    fn exact_truth_of_zero_demands_an_exact_zero() {
        let zero = Estimate {
            value: 0.0,
            lo: 0,
            hi: 0,
            exact: true,
        };
        theorem1(&zero, 0, 0.1).unwrap();
        assert!(theorem1(
            &Estimate {
                value: 0.5,
                hi: 1,
                ..zero
            },
            0,
            0.1
        )
        .is_err());
    }
}
