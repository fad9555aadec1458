"""Verilog frontend: lexer, parser, numbered AST, code generator.

This subpackage replaces the modified PyVerilog toolkit used by the original
CirFix artifact.  Typical usage::

    from repro.hdl import parse, generate

    tree = parse(verilog_text)      # AST with preorder node ids
    text = generate(tree)           # back to Verilog source
"""

from . import ast
from .ast import structural_diff, structurally_equal
from .codegen import CodegenError, InexactCodegen, generate
from .lexer import LexError, tokenize
from .node_ids import clear_ids, max_node_id, number_nodes
from .parser import ParseError, parse
from .preprocess import preprocess

__all__ = [
    "ast",
    "parse",
    "generate",
    "tokenize",
    "preprocess",
    "number_nodes",
    "clear_ids",
    "max_node_id",
    "structural_diff",
    "structurally_equal",
    "ParseError",
    "LexError",
    "CodegenError",
    "InexactCodegen",
]
