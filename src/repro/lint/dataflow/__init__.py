"""repro.lint.dataflow: the interprocedural analysis substrate.

The package grows PR 4's intraprocedural rule engine into a small,
stdlib-only dataflow framework:

* :mod:`~repro.lint.dataflow.scopes` — the scope walker the legacy rules
  run on (moved here from ``astutils`` so the whole lint layer shares
  one substrate);
* :mod:`~repro.lint.dataflow.cfg` — per-function control-flow graphs
  with explicit ``try``/``except``/``finally``/``with`` edge modeling,
  including the ``except Exception`` vs ``except BaseException``
  distinction (a ``KeyboardInterrupt`` sails past the former);
* :mod:`~repro.lint.dataflow.lattice` — the flat value lattices the
  abstract interpreter joins over (resource states and the mutation
  dirty bit);
* :mod:`~repro.lint.dataflow.callgraph` — the project index: modules,
  functions by qualname, and best-effort call resolution;
* :mod:`~repro.lint.dataflow.summaries` — path-condition-free but
  exit-path-complete function summaries that compose across calls, plus
  the content-hash cache behind ``--changed`` re-runs;
* :mod:`~repro.lint.dataflow.interp` — the worklist abstract
  interpreter and the two concrete domains rules R007 and R009 run.
"""

from .callgraph import DataflowProject, FunctionInfo, ModuleInfo
from .cfg import ControlFlowGraph, build_cfg
from .lattice import BOTTOM, TOP, FlatLattice
from .scopes import (
    FunctionNode,
    closure_captured_names,
    dotted_name,
    statements_excluding_nested,
    walk_scopes,
)
from .summaries import FunctionSummary, SummaryCache

__all__ = [
    "BOTTOM",
    "ControlFlowGraph",
    "DataflowProject",
    "FlatLattice",
    "FunctionInfo",
    "FunctionNode",
    "FunctionSummary",
    "ModuleInfo",
    "SummaryCache",
    "TOP",
    "build_cfg",
    "closure_captured_names",
    "dotted_name",
    "statements_excluding_nested",
    "walk_scopes",
]
