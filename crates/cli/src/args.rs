//! A small, dependency-free `--key value` argument parser.

use std::collections::BTreeMap;

use sealpaa_cells::{Cell, InputProfile, StandardCell, TruthTable};
use sealpaa_explore::accurate_cell_with_proxy_costs;
use sealpaa_num::Rational;

use crate::error::CliError;

/// Parsed command arguments: `--key value` options (also accepted as
/// `--key=value`) and bare `--flag`s, validated against the command's
/// declared vocabulary.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl ParsedArgs {
    /// Parses `tokens` against the declared `options` and `flags`.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, missing option values, and positional tokens.
    pub fn parse(tokens: &[String], options: &[&str], flags: &[&str]) -> Result<Self, CliError> {
        let mut parsed = ParsedArgs::default();
        let mut i = 0;
        while i < tokens.len() {
            let token = &tokens[i];
            let Some(stripped) = token.strip_prefix("--") else {
                return Err(CliError::usage(format!(
                    "unexpected positional argument {token:?}"
                )));
            };
            let (key, inline_value) = match stripped.split_once('=') {
                Some((k, v)) => (k.to_owned(), Some(v.to_owned())),
                None => (stripped.to_owned(), None),
            };
            if flags.contains(&key.as_str()) {
                if inline_value.is_some() {
                    return Err(CliError::usage(format!("flag --{key} takes no value")));
                }
                parsed.flags.push(key);
                i += 1;
            } else if options.contains(&key.as_str()) {
                let value = match inline_value {
                    Some(v) => v,
                    None => {
                        i += 1;
                        tokens
                            .get(i)
                            .cloned()
                            .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?
                    }
                };
                if parsed.options.insert(key.clone(), value).is_some() {
                    return Err(CliError::usage(format!("--{key} given twice")));
                }
                i += 1;
            } else {
                return Err(CliError::usage(format!("unknown option --{key}")));
            }
        }
        Ok(parsed)
    }

    /// The raw value of `--key`, if given.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// `true` if `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A required option, parsed.
    ///
    /// # Errors
    ///
    /// Fails if missing or unparseable.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let raw = self
            .option(key)
            .ok_or_else(|| CliError::usage(format!("--{key} is required")))?;
        raw.parse()
            .map_err(|_| CliError::usage(format!("--{key}: cannot parse {raw:?}")))
    }

    /// An optional option with a default, parsed.
    ///
    /// # Errors
    ///
    /// Fails only if the option is present but unparseable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.option(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::usage(format!("--{key}: cannot parse {raw:?}"))),
        }
    }
}

/// Resolves a cell name: `accurate`, `lpaa1` … `lpaa7`, or a custom truth
/// table written as 16 sum/carry bits `SSSSSSSS/CCCCCCCC` in row order
/// (row 0 = `A=B=Cin=0` first, leftmost character).
///
/// # Errors
///
/// Fails on unknown names or malformed table strings.
pub fn parse_cell(spec: &str) -> Result<Cell, CliError> {
    if let Ok(std_cell) = spec.parse::<StandardCell>() {
        return Ok(std_cell.cell());
    }
    if spec.contains('/') {
        let table: TruthTable = spec.parse().map_err(CliError::analysis)?;
        return Ok(Cell::custom(format!("custom({spec})"), table));
    }
    Err(CliError::usage(format!(
        "unknown cell {spec:?} (use accurate, lpaa1..lpaa7, or SSSSSSSS/CCCCCCCC)"
    )))
}

/// Resolves a comma-separated candidate list under `--key` for the search
/// commands: `accurate`/`accufa` take the estimated costs from DESIGN.md,
/// other names go through [`parse_cell`]. Defaults to
/// `lpaa1,lpaa2,lpaa5,accurate`.
///
/// # Errors
///
/// Fails on an unknown cell name.
pub fn parse_candidates(args: &ParsedArgs, key: &str) -> Result<Vec<Cell>, CliError> {
    args.option(key)
        .unwrap_or("lpaa1,lpaa2,lpaa5,accurate")
        .split(',')
        .map(|name| {
            if name.eq_ignore_ascii_case("accurate") || name.eq_ignore_ascii_case("accufa") {
                Ok(accurate_cell_with_proxy_costs())
            } else {
                parse_cell(name)
            }
        })
        .collect()
}

/// An optional cap such as `--budget-power`, parsed; `None` if absent.
///
/// # Errors
///
/// Fails only if the option is present but unparseable.
pub fn parse_optional<T: std::str::FromStr>(
    args: &ParsedArgs,
    key: &str,
) -> Result<Option<T>, CliError> {
    args.option(key)
        .map(|raw| {
            raw.parse()
                .map_err(|_| CliError::usage(format!("--{key}: cannot parse {raw:?}")))
        })
        .transpose()
}

/// Builds the per-bit input profile from `--width`, plus either a constant
/// `--p` or per-bit `--pa`/`--pb` comma lists, with optional `--cin`.
///
/// # Errors
///
/// Fails if the specification is inconsistent or out of range.
pub fn parse_profile(args: &ParsedArgs, width: usize) -> Result<InputProfile<f64>, CliError> {
    let parse_list = |key: &str| -> Result<Option<Vec<f64>>, CliError> {
        match args.option(key) {
            None => Ok(None),
            Some(raw) => {
                let values: Result<Vec<f64>, _> = raw.split(',').map(str::parse).collect();
                let values = values
                    .map_err(|_| CliError::usage(format!("--{key}: cannot parse {raw:?}")))?;
                if values.len() != width {
                    return Err(CliError::usage(format!(
                        "--{key} lists {} values but --width is {width}",
                        values.len()
                    )));
                }
                Ok(Some(values))
            }
        }
    };
    let p: f64 = args.get_or("p", 0.5)?;
    let pa = parse_list("pa")?.unwrap_or_else(|| vec![p; width]);
    let pb = parse_list("pb")?.unwrap_or_else(|| vec![p; width]);
    let cin: f64 = args.get_or("cin", p)?;
    InputProfile::new(pa, pb, cin).map_err(CliError::analysis)
}

/// Like [`parse_profile`], but parses the probability strings as *exact*
/// rationals (`0.9` stays `9/10`; `1/3` is accepted), for `--exact` mode.
///
/// # Errors
///
/// Fails if the specification is inconsistent or out of range.
pub fn parse_profile_rational(
    args: &ParsedArgs,
    width: usize,
) -> Result<InputProfile<Rational>, CliError> {
    let parse_one = |key: &str, raw: &str| -> Result<Rational, CliError> {
        raw.parse()
            .map_err(|_| CliError::usage(format!("--{key}: cannot parse {raw:?}")))
    };
    let parse_list = |key: &str| -> Result<Option<Vec<Rational>>, CliError> {
        match args.option(key) {
            None => Ok(None),
            Some(raw) => {
                let values: Result<Vec<Rational>, CliError> =
                    raw.split(',').map(|v| parse_one(key, v)).collect();
                let values = values?;
                if values.len() != width {
                    return Err(CliError::usage(format!(
                        "--{key} lists {} values but --width is {width}",
                        values.len()
                    )));
                }
                Ok(Some(values))
            }
        }
    };
    let p = match args.option("p") {
        Some(raw) => parse_one("p", raw)?,
        None => Rational::from_ratio(1, 2),
    };
    let pa = parse_list("pa")?.unwrap_or_else(|| vec![p.clone(); width]);
    let pb = parse_list("pb")?.unwrap_or_else(|| vec![p.clone(); width]);
    let cin = match args.option("cin") {
        Some(raw) => parse_one("cin", raw)?,
        None => p,
    };
    InputProfile::new(pa, pb, cin).map_err(CliError::analysis)
}

/// Resolves `--cell NAME` or `--cells a,b,c` (per-stage, LSB first) into the
/// per-stage cell list for `width` stages.
///
/// # Errors
///
/// Fails if neither/both are given or a name is unknown.
pub fn parse_chain_cells(args: &ParsedArgs, width: usize) -> Result<Vec<Cell>, CliError> {
    match (args.option("cell"), args.option("cells")) {
        (Some(one), None) => Ok(vec![parse_cell(one)?; width]),
        (None, Some(many)) => {
            let cells: Result<Vec<Cell>, CliError> = many.split(',').map(parse_cell).collect();
            let cells = cells?;
            if cells.len() != width {
                return Err(CliError::usage(format!(
                    "--cells lists {} cells but --width is {width}",
                    cells.len()
                )));
            }
            Ok(cells)
        }
        (None, None) => Err(CliError::usage("one of --cell or --cells is required")),
        (Some(_), Some(_)) => Err(CliError::usage("--cell and --cells are mutually exclusive")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_options_and_flags() {
        let a = ParsedArgs::parse(
            &toks("--width 8 --exact --p=0.25"),
            &["width", "p"],
            &["exact"],
        )
        .expect("valid");
        assert_eq!(a.option("width"), Some("8"));
        assert_eq!(a.option("p"), Some("0.25"));
        assert!(a.flag("exact"));
        assert!(!a.flag("trace"));
    }

    #[test]
    fn rejects_unknown_and_duplicates() {
        assert!(ParsedArgs::parse(&toks("--bogus 1"), &["width"], &[]).is_err());
        assert!(ParsedArgs::parse(&toks("--width 1 --width 2"), &["width"], &[]).is_err());
        assert!(ParsedArgs::parse(&toks("positional"), &["width"], &[]).is_err());
        assert!(ParsedArgs::parse(&toks("--width"), &["width"], &[]).is_err());
        assert!(ParsedArgs::parse(&toks("--exact=1"), &[], &["exact"]).is_err());
    }

    #[test]
    fn require_and_get_or() {
        let a = ParsedArgs::parse(&toks("--width 8"), &["width", "p"], &[]).expect("valid");
        assert_eq!(a.require::<usize>("width").expect("present"), 8);
        assert!(a.require::<usize>("p").is_err());
        assert_eq!(a.get_or::<f64>("p", 0.5).expect("default"), 0.5);
    }

    #[test]
    fn cell_names_resolve() {
        assert_eq!(parse_cell("lpaa1").expect("known").name(), "LPAA 1");
        assert_eq!(parse_cell("LPAA3").expect("known").name(), "LPAA 3");
        assert_eq!(parse_cell("accurate").expect("known").name(), "AccuFA");
        assert_eq!(parse_cell("accufa").expect("known").name(), "AccuFA");
        assert!(parse_cell("lpaa9").is_err());
    }

    #[test]
    fn custom_truth_table_cell() {
        // The accurate adder written out by hand: sum = 01101001… pattern.
        let accurate = TruthTable::accurate();
        let mut sum = String::new();
        let mut carry = String::new();
        for i in 0..8 {
            let out = accurate.rows()[i];
            sum.push(if out.sum { '1' } else { '0' });
            carry.push(if out.carry_out { '1' } else { '0' });
        }
        let cell = parse_cell(&format!("{sum}/{carry}")).expect("valid table");
        assert!(cell.truth_table().is_accurate());
        assert!(parse_cell("0110/01").is_err());
        assert!(parse_cell("0110100x/00010111").is_err());
    }

    #[test]
    fn profile_constant_and_per_bit() {
        let a = ParsedArgs::parse(&toks("--p 0.1"), &["p", "pa", "pb", "cin"], &[]).expect("ok");
        let profile = parse_profile(&a, 3).expect("valid");
        assert_eq!(*profile.pa(2), 0.1);
        assert_eq!(*profile.p_cin(), 0.1);

        let a = ParsedArgs::parse(
            &toks("--pa 0.1,0.2,0.3 --pb 0.4,0.5,0.6 --cin 0.9"),
            &["p", "pa", "pb", "cin"],
            &[],
        )
        .expect("ok");
        let profile = parse_profile(&a, 3).expect("valid");
        assert_eq!(*profile.pb(1), 0.5);
        assert_eq!(*profile.p_cin(), 0.9);
    }

    #[test]
    fn profile_length_mismatch_rejected() {
        let a =
            ParsedArgs::parse(&toks("--pa 0.1,0.2"), &["p", "pa", "pb", "cin"], &[]).expect("ok");
        assert!(parse_profile(&a, 3).is_err());
    }

    #[test]
    fn chain_cells_resolution() {
        let a = ParsedArgs::parse(&toks("--cell lpaa2"), &["cell", "cells"], &[]).expect("ok");
        let cells = parse_chain_cells(&a, 4).expect("valid");
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[3].name(), "LPAA 2");

        let a = ParsedArgs::parse(&toks("--cells lpaa1,accurate"), &["cell", "cells"], &[])
            .expect("ok");
        let cells = parse_chain_cells(&a, 2).expect("valid");
        assert_eq!(cells[1].name(), "AccuFA");

        let a = ParsedArgs::parse(&toks("--cells lpaa1"), &["cell", "cells"], &[]).expect("ok");
        assert!(parse_chain_cells(&a, 2).is_err());

        let a = ParsedArgs::parse(&[], &["cell", "cells"], &[]).expect("ok");
        assert!(parse_chain_cells(&a, 2).is_err());
    }
}
