//! The shared VCD sampling plan for `cesc check` routes.
//!
//! Every check route used to assemble the same three things by hand:
//! the list of *declared* clock names the selected targets sample on,
//! a per-clock symbol mask (so each tick only carries the signals its
//! charts mention), and the validation of the `--clock` rename
//! override. [`ClockPlan`] centralises that assembly on
//! [`SpecSet::clock_plan`].

use cesc_expr::Valuation;
use cesc_trace::{ClockDomain, ClockSet, VcdClockSpec};

use crate::{SpecError, SpecSet, TargetRef};

/// The sampled-clock plan for a set of check targets: declared clock
/// names in first-seen order, each with the union of its charts'
/// mentioned-symbol masks, plus the validated `--clock` rename.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockPlan {
    names: Vec<String>,
    masks: Vec<Valuation>,
    sampled_override: Option<String>,
}

impl ClockPlan {
    /// Declared clock names, in first-seen target order.
    pub fn declared(&self) -> &[String] {
        &self.names
    }

    /// Number of distinct declared clocks.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the plan samples no clock at all.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The slot (clock index) of a declared clock name.
    pub fn slot_of(&self, declared: &str) -> Option<usize> {
        self.names.iter().position(|n| n == declared)
    }

    /// The per-clock VCD sampling specs, in slot order. The validated
    /// `--clock` override renames the *sampled signal*; the declared
    /// name (what monitors bind against) is unchanged.
    pub fn vcd_specs(&self) -> Vec<VcdClockSpec> {
        self.names
            .iter()
            .zip(&self.masks)
            .map(|(declared, mask)| {
                let sampled = self.sampled_override.as_deref().unwrap_or(declared);
                VcdClockSpec::masked(sampled, *mask)
            })
            .collect()
    }

    /// A [`ClockSet`] over the *declared* names, one domain per slot —
    /// what compiled multi-clock states bind against.
    pub fn clock_set(&self) -> ClockSet {
        let mut set = ClockSet::new();
        for declared in &self.names {
            set.add(ClockDomain::new(declared, 1, 0));
        }
        set
    }
}

impl SpecSet {
    /// Assembles the sampling plan for `targets`, validating
    /// `clock_override` (`--clock`): the override can only rename the
    /// sampled signal when every single-clock target shares one
    /// declared clock, and never applies to multiclock specs.
    pub fn clock_plan(
        &self,
        targets: &[TargetRef],
        clock_override: Option<&str>,
    ) -> Result<ClockPlan, SpecError> {
        let doc = self.document();
        if clock_override.is_some() {
            let mut declared: Vec<&str> = Vec::new();
            for t in targets {
                match *t {
                    TargetRef::Chart(i) => {
                        let c = doc.charts[i].clock();
                        if !declared.contains(&c) {
                            declared.push(c);
                        }
                    }
                    TargetRef::Assert(i) => {
                        let spec = self.assert_spec(i)?;
                        if !declared.contains(&spec.clock()) {
                            declared.push(spec.clock());
                        }
                    }
                    TargetRef::Multi(i) => {
                        return Err(SpecError::ClockOverride(format!(
                            "--clock cannot rename the clocks of multiclock spec `{}`; its \
                             local charts sample their declared clocks",
                            doc.multiclock[i].name()
                        )));
                    }
                }
            }
            if declared.len() > 1 {
                return Err(SpecError::ClockOverride(format!(
                    "--clock cannot rename charts on different declared clocks ({})",
                    declared.join(", ")
                )));
            }
        }

        let mut names: Vec<String> = Vec::new();
        let mut masks: Vec<Valuation> = Vec::new();
        let mut note = |declared: &str, mask: Valuation| {
            match names.iter().position(|n| n == declared) {
                Some(i) => masks[i] = masks[i] | mask,
                None => {
                    names.push(declared.to_owned());
                    masks.push(mask);
                }
            }
        };
        for &t in targets {
            match t {
                TargetRef::Chart(i) => note(doc.charts[i].clock(), self.target_symbols(t)),
                TargetRef::Multi(i) => {
                    for c in doc.multiclock[i].charts() {
                        note(c.clock(), c.mentioned_symbols());
                    }
                }
                TargetRef::Assert(i) => note(self.assert_spec(i)?.clock(), self.target_symbols(t)),
            }
        }
        Ok(ClockPlan {
            names,
            masks,
            sampled_override: clock_override.map(str::to_owned),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecSet;

    const DOC: &str = r#"
        scesc a on clk { instances { M } events { x } tick { M: x } }
        scesc b on clk { instances { M } events { y } tick { M: y } }
        scesc c on tock { instances { M } events { z } tick { M: z } }
        multiclock duo { charts { a, c } }
    "#;

    #[test]
    fn masks_union_per_declared_clock() {
        let specs = SpecSet::load(DOC).unwrap();
        let plan = specs
            .clock_plan(&[TargetRef::Chart(0), TargetRef::Chart(1), TargetRef::Chart(2)], None)
            .unwrap();
        assert_eq!(plan.declared(), &["clk".to_owned(), "tock".to_owned()]);
        let x = specs.alphabet().lookup("x").unwrap();
        let y = specs.alphabet().lookup("y").unwrap();
        let z = specs.alphabet().lookup("z").unwrap();
        assert!(plan.masks[0].contains(x) && plan.masks[0].contains(y));
        assert!(!plan.masks[0].contains(z));
        assert!(plan.masks[1].contains(z));
        assert_eq!(plan.slot_of("tock"), Some(1));
        assert_eq!(plan.clock_set().len(), 2);
        assert_eq!(plan.vcd_specs().len(), 2);
    }

    #[test]
    fn override_rejects_mixed_and_multiclock_targets() {
        let specs = SpecSet::load(DOC).unwrap();
        let err = specs
            .clock_plan(&[TargetRef::Chart(0), TargetRef::Chart(2)], Some("sig"))
            .unwrap_err();
        assert!(err.to_string().contains("different declared clocks"), "{}", err);
        let err = specs
            .clock_plan(&[TargetRef::Multi(0)], Some("sig"))
            .unwrap_err();
        assert!(err.to_string().contains("multiclock spec `duo`"), "{}", err);
        // valid override renames the sampled signal, not the declared
        let plan = specs
            .clock_plan(&[TargetRef::Chart(0), TargetRef::Chart(1)], Some("sig"))
            .unwrap();
        assert_eq!(plan.declared(), &["clk".to_owned()]);
        assert_eq!(plan.vcd_specs()[0].name(), "sig");
    }

    #[test]
    fn multiclock_plan_follows_chart_order() {
        let specs = SpecSet::load(DOC).unwrap();
        let plan = specs.clock_plan(&[TargetRef::Multi(0)], None).unwrap();
        assert_eq!(plan.declared(), &["clk".to_owned(), "tock".to_owned()]);
    }
}
