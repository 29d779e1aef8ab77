"""primeavoid: desk-scale construction of prime-avoiding squarefree
numbers and prime powers, with machine-checkable certificates.

The package imports no submodule up front, so a command pays only for
the modules it runs.
"""

__version__ = "0.1.0"
