"""Module/parameter abstractions of the numpy DL framework.

A :class:`Module` is a node in a computation tree with an explicit
``forward``/``backward`` pair.  Parameters and sub-modules are discovered by
attribute scan (like PyTorch), which keeps layer definitions declarative:
assigning ``self.weight = Parameter(...)`` or ``self.body = Sequential(...)``
is all the registration needed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter", "Module", "Sequential", "forward_pair"]


class Parameter:
    """A trainable array with its gradient accumulator."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class: forward/backward, parameter discovery, train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    # -- to be implemented by subclasses --------------------------------- #

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``grad`` (d loss / d output) and return d loss / d input.

        Parameter gradients are *accumulated* into ``Parameter.grad``; call
        :meth:`zero_grad` between optimisation steps.
        """
        raise NotImplementedError

    def folds(self, following: "Module") -> bool:
        """Whether ``self.forward(x, fold=following)`` computes
        ``following.forward(self.forward(x))`` in one step; containers
        ask before each pair of steps (see :func:`forward_pair`)."""
        return False

    # -- tree utilities --------------------------------------------------- #

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def children(self) -> list[tuple[str, "Module"]]:
        """Direct sub-modules, discovered by attribute scan."""
        found: list[tuple[str, Module]] = []
        for name, value in vars(self).items():
            if isinstance(value, Module):
                found.append((name, value))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        found.append((f"{name}.{i}", item))
        return found

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """All parameters in the subtree with dotted path names."""
        params: list[tuple[str, Parameter]] = []
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                params.append((f"{prefix}{name}", value))
        for name, child in self.children():
            params.extend(child.named_parameters(prefix=f"{prefix}{name}."))
        return params

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        """Switch the subtree to training mode (affects BatchNorm)."""
        self.training = True
        for _, child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        """Switch the subtree to inference mode."""
        self.training = False
        for _, child in self.children():
            child.eval()
        return self

    # -- state (de)serialisation ------------------------------------------ #

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters plus persistent buffers (e.g. BatchNorm statistics)."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update(self._named_buffers())
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = self._buffer_owners()
        missing = (set(own_params) | set(own_buffers)) - set(state)
        extra = set(state) - (set(own_params) | set(own_buffers))
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, p in own_params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
            p.data[...] = state[name]
        for name, (owner, attr) in own_buffers.items():
            setattr(owner, attr, np.asarray(state[name], dtype=np.float32).copy())

    def _named_buffers(self, prefix: str = "") -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {}
        for attr in getattr(self, "buffer_names", ()):  # set by layers with buffers
            buffers[f"{prefix}{attr}"] = np.asarray(getattr(self, attr)).copy()
        for name, child in self.children():
            buffers.update(child._named_buffers(prefix=f"{prefix}{name}."))
        return buffers

    def _buffer_owners(self, prefix: str = "") -> dict[str, tuple["Module", str]]:
        owners: dict[str, tuple[Module, str]] = {}
        for attr in getattr(self, "buffer_names", ()):
            owners[f"{prefix}{attr}"] = (self, attr)
        for name, child in self.children():
            owners.update(child._buffer_owners(prefix=f"{prefix}{name}."))
        return owners


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        steps = self.steps
        i = 0
        while i < len(steps):
            if i + 1 < len(steps) and steps[i].folds(steps[i + 1]):
                x = steps[i].forward(x, fold=steps[i + 1])
                i += 2
            else:
                x = steps[i].forward(x)
                i += 1
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for module in reversed(self.steps):
            grad = module.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index: int) -> Module:
        return self.steps[index]


def forward_pair(first: Module, second: Module, x: np.ndarray) -> np.ndarray:
    """``second.forward(first.forward(x))``, as one step where ``first``
    folds ``second`` in (an eval-mode conv and its BatchNorm)."""
    if first.folds(second):
        return first.forward(x, fold=second)
    return second.forward(first.forward(x))
