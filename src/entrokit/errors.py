"""Exception types shared across the toolkit.

User-facing errors split into two families: ``InputError`` for malformed or
out-of-contract inputs (CLI exit code 2), and ``CertificationError`` for
numerical results that could not be certified at the requested tolerance
(CLI exit code 3).  Everything else is a plain bug and raises normally.
"""


class EntrokitError(Exception):
    pass


class InputError(EntrokitError):
    """Invalid input: violated precondition, bad schema, unknown name."""


class CertificationError(EntrokitError):
    """A numerical result exists but its error bound could not be certified."""


class ZeroPolynomial(InputError):
    pass


class NotPrimitive(InputError):
    pass


class NoConvergence(CertificationError):
    def __init__(self, max_iterations):
        super().__init__(f"root refinement did not certify within {max_iterations} iterations")
        self.max_iterations = max_iterations


class RankDeficient(InputError):
    pass


class SingularMap(InputError):
    pass


class WrongDomain(InputError):
    pass


class InvalidMap(InputError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class HorizonTooShort(InputError):
    pass


DEFAULT_BUDGET = 5_000_000  # default cap of every enumeration


class BudgetExceeded(EntrokitError):
    def __init__(self, budget, what="enumeration"):
        super().__init__(f"{what} exceeded budget of {budget}")
        self.budget = budget
