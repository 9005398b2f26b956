//! Human-readable summaries of what personalization did.

use sdwp_model::SchemaDiff;
use std::collections::BTreeMap;
use std::fmt;

/// A summary of the personalization applied for one user at session start:
/// which rules fired, how the schema changed (MD → GeoMD), how many
/// instances were selected and what fraction of the facts remains visible.
///
/// This is the report a web front-end would show a decision maker ("your
/// view has been tailored to the stores near you") and the artefact
/// EXPERIMENTS.md quotes when reproducing Fig. 1 / Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonalizationReport {
    /// The decision maker the report is about.
    pub user: String,
    /// Number of rules whose event matched.
    pub rules_matched: usize,
    /// Names of the rules that actually had an effect.
    pub rules_with_effects: Vec<String>,
    /// The schema delta (added layers, levels made spatial).
    pub schema_diff: SchemaDiff,
    /// Number of members per restricted dimension that the session's view
    /// keeps: the conjunction of every rule's selection of the dimension.
    pub selected_members: BTreeMap<String, usize>,
    /// Fact rows visible through the personalized view, per fact.
    pub visible_facts: BTreeMap<String, usize>,
    /// Total fact rows, per fact.
    pub total_facts: BTreeMap<String, usize>,
}

impl PersonalizationReport {
    /// The fraction of fact rows still visible for a fact (1.0 when the
    /// fact is unknown or empty).
    pub fn visibility_ratio(&self, fact: &str) -> f64 {
        let total = self.total_facts.get(fact).copied().unwrap_or(0);
        if total == 0 {
            return 1.0;
        }
        let visible = self.visible_facts.get(fact).copied().unwrap_or(total);
        visible as f64 / total as f64
    }

    /// Returns `true` when the session received any personalization at all.
    pub fn is_personalized(&self) -> bool {
        !self.rules_with_effects.is_empty()
    }
}

impl fmt::Display for PersonalizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Personalization report for '{}'", self.user)?;
        writeln!(
            f,
            "  rules matched: {}, with effects: {}",
            self.rules_matched,
            if self.rules_with_effects.is_empty() {
                "none".to_string()
            } else {
                self.rules_with_effects.join(", ")
            }
        )?;
        let diff = self.schema_diff.to_string();
        for line in diff.lines() {
            writeln!(f, "  schema {line}")?;
        }
        for (dimension, count) in &self.selected_members {
            writeln!(f, "  selected {count} member(s) of dimension '{dimension}'")?;
        }
        for (fact, total) in &self.total_facts {
            let visible = self.visible_facts.get(fact).copied().unwrap_or(*total);
            writeln!(
                f,
                "  fact '{fact}': {visible} of {total} rows visible ({:.1}%)",
                self.visibility_ratio(fact) * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PersonalizationReport {
        PersonalizationReport {
            user: "regional-manager".into(),
            rules_matched: 3,
            rules_with_effects: vec!["addSpatiality".into(), "5kmStores".into()],
            schema_diff: SchemaDiff::default(),
            selected_members: BTreeMap::from([("Store".to_string(), 4)]),
            visible_facts: BTreeMap::from([("Sales".to_string(), 40)]),
            total_facts: BTreeMap::from([("Sales".to_string(), 200)]),
        }
    }

    #[test]
    fn visibility_ratio() {
        let r = report();
        assert!((r.visibility_ratio("Sales") - 0.2).abs() < 1e-12);
        assert_eq!(r.visibility_ratio("Returns"), 1.0);
        assert!(r.is_personalized());
    }

    #[test]
    fn display_mentions_key_facts() {
        let text = report().to_string();
        assert!(text.contains("regional-manager"));
        assert!(text.contains("addSpatiality, 5kmStores"));
        assert!(text.contains("40 of 200 rows visible"));
        assert!(text.contains("20.0%"));
        assert!(text.contains("selected 4 member(s) of dimension 'Store'"));
    }

    #[test]
    fn unpersonalized_report() {
        let mut r = report();
        r.rules_with_effects.clear();
        assert!(!r.is_personalized());
        assert!(r.to_string().contains("with effects: none"));
    }
}
