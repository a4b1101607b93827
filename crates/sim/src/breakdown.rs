//! Aggregating charge logs into Fig. 6-style breakdown tables.

use std::collections::BTreeMap;
use std::fmt;

use crate::clock::Charge;
use crate::cost::Component;

/// One line of a breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownLine {
    pub label: String,
    pub micros: u64,
    /// Share of the total in percent (0..=100, may exceed 100 in sum for
    /// overlapping parallel branches when grouped by step).
    pub percent: f64,
}

/// A breakdown of an execution: grouped lines plus the elapsed total the
/// percentages are computed against.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    pub title: String,
    pub elapsed_us: u64,
    pub lines: Vec<BreakdownLine>,
}

impl Breakdown {
    /// Group charges by step label, preserving first-occurrence order —
    /// this regenerates the row structure of Fig. 6.
    pub fn by_step(title: impl Into<String>, charges: &[Charge], elapsed_us: u64) -> Breakdown {
        let mut order: Vec<String> = Vec::new();
        let mut sums: BTreeMap<String, u64> = BTreeMap::new();
        for c in charges {
            match sums.get_mut(&*c.step) {
                Some(sum) => *sum += c.duration_us,
                None => {
                    order.push(c.step.to_string());
                    sums.insert(c.step.to_string(), c.duration_us);
                }
            }
        }
        let lines = order
            .into_iter()
            .map(|label| {
                let micros = sums[&label];
                BreakdownLine {
                    label,
                    micros,
                    percent: percent(micros, elapsed_us),
                }
            })
            .collect();
        Breakdown {
            title: title.into(),
            elapsed_us,
            lines,
        }
    }

    /// Group charges by component tag — the view used for the controller
    /// ablation and the "who pays" analyses.
    pub fn by_component(
        title: impl Into<String>,
        charges: &[Charge],
        elapsed_us: u64,
    ) -> Breakdown {
        let mut sums: BTreeMap<Component, u64> = BTreeMap::new();
        for c in charges {
            *sums.entry(c.component).or_insert(0) += c.duration_us;
        }
        let lines = Component::ALL
            .iter()
            .filter_map(|comp| {
                sums.get(comp).map(|&micros| BreakdownLine {
                    label: comp.name().to_string(),
                    micros,
                    percent: percent(micros, elapsed_us),
                })
            })
            .collect();
        Breakdown {
            title: title.into(),
            elapsed_us,
            lines,
        }
    }

    /// Total microseconds across all lines (booked work, not elapsed).
    pub fn booked_us(&self) -> u64 {
        self.lines.iter().map(|l| l.micros).sum()
    }

    /// Share (0..=100) attributed to lines whose label satisfies `pred`.
    pub fn share_where(&self, pred: impl Fn(&str) -> bool) -> f64 {
        let us: u64 = self
            .lines
            .iter()
            .filter(|l| pred(&l.label))
            .map(|l| l.micros)
            .sum();
        percent(us, self.elapsed_us)
    }

    /// Render as an aligned two-column table with a percent column, the way
    /// the `report` binary prints Fig. 6.
    pub fn render(&self) -> String {
        let label_width = self
            .lines
            .iter()
            .map(|l| l.label.len())
            .max()
            .unwrap_or(4)
            .max("Step".len());
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        out.push_str(&format!(
            "{:label_width$} | {:>10} | {:>6}\n",
            "Step", "micros", "%"
        ));
        out.push_str(&format!(
            "{}-+-{}-+-{}\n",
            "-".repeat(label_width),
            "-".repeat(10),
            "-".repeat(6)
        ));
        for l in &self.lines {
            out.push_str(&format!(
                "{:label_width$} | {:>10} | {:>5.1}%\n",
                l.label, l.micros, l.percent
            ));
        }
        out.push_str(&format!(
            "{:label_width$} | {:>10} | {:>5.1}%\n",
            "TOTAL (elapsed)", self.elapsed_us, 100.0
        ));
        out
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn percent(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 * 100.0 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Meter;

    fn sample_meter() -> Meter {
        let mut m = Meter::new();
        m.charge(Component::Udtf, "Start UDTF", 30);
        m.charge(Component::Rmi, "RMI call", 10);
        m.charge(Component::Activity, "Process activities", 50);
        m.charge(Component::Udtf, "Finish UDTF", 10);
        m
    }

    #[test]
    fn by_step_preserves_order_and_sums() {
        let m = sample_meter();
        let b = Breakdown::by_step("t", m.charges(), m.now_us());
        assert_eq!(
            b.lines.iter().map(|l| l.label.as_str()).collect::<Vec<_>>(),
            vec![
                "Start UDTF",
                "RMI call",
                "Process activities",
                "Finish UDTF"
            ]
        );
        assert_eq!(b.elapsed_us, 100);
        assert!((b.lines[2].percent - 50.0).abs() < 1e-9);
    }

    #[test]
    fn by_step_merges_repeated_labels() {
        let mut m = Meter::new();
        m.charge(Component::Rmi, "RMI call", 5);
        m.charge(Component::Udtf, "work", 10);
        m.charge(Component::Rmi, "RMI call", 5);
        let b = Breakdown::by_step("t", m.charges(), m.now_us());
        assert_eq!(b.lines.len(), 2);
        assert_eq!(b.lines[0].label, "RMI call");
        assert_eq!(b.lines[0].micros, 10);
    }

    #[test]
    fn by_component_groups_tags() {
        let m = sample_meter();
        let b = Breakdown::by_component("t", m.charges(), m.now_us());
        let udtf = b.lines.iter().find(|l| l.label == "UDTF").unwrap();
        assert_eq!(udtf.micros, 40);
        assert!((b.booked_us()) == 100);
    }

    #[test]
    fn sequential_percentages_sum_to_100() {
        let m = sample_meter();
        let b = Breakdown::by_step("t", m.charges(), m.now_us());
        let sum: f64 = b.lines.iter().map(|l| l.percent).sum();
        assert!((sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn share_where_filters() {
        let m = sample_meter();
        let b = Breakdown::by_step("t", m.charges(), m.now_us());
        assert!((b.share_where(|l| l.contains("UDTF")) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_renders_zero_percent() {
        let b = Breakdown::by_step("t", &[], 0);
        assert!(b.lines.is_empty());
        assert!(b.render().contains("TOTAL"));
    }

    #[test]
    fn render_contains_rows() {
        let m = sample_meter();
        let b = Breakdown::by_step("WfMS approach", m.charges(), m.now_us());
        let s = b.render();
        assert!(s.contains("WfMS approach"));
        assert!(s.contains("Process activities"));
        assert!(s.contains("50.0%"));
    }
}
