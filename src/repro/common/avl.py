"""A self-balancing AVL search tree.

The Pravega read index uses "a sorted index of entries per segment
(indexed by their start offsets) ... implemented via a custom AVL search
tree to minimize memory usage while not sacrificing access performance"
(§4.2, ref [29]).  This implementation supports exact search plus the
*floor* query the read index needs: "the greatest entry whose start
offset is <= the requested offset".
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

__all__ = ["AvlTree"]


class _Node(Generic[K, V]):
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key: K, value: V) -> None:
        self.key = key
        self.value = value
        self.left: Optional["_Node[K, V]"] = None
        self.right: Optional["_Node[K, V]"] = None
        self.height = 1


def _height(node: Optional[_Node]) -> int:
    return node.height if node is not None else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node: _Node) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(node: _Node) -> _Node:
    _update(node)
    balance = _balance_factor(node)
    if balance > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


# Insert and delete recurse through module-level helpers rather than
# closures: a nested function that calls itself is a reference cycle, and
# the read index inserts and deletes on every cached append and eviction,
# which left cyclic garbage for the collector on every call.
def _insert(tree: "AvlTree", node: Optional[_Node], key: Any, value: Any) -> _Node:
    if node is None:
        tree._size += 1
        return _Node(key, value)
    if key < node.key:
        node.left = _insert(tree, node.left, key, value)
    elif key > node.key:
        node.right = _insert(tree, node.right, key, value)
    else:
        node.value = value
        return node
    return _rebalance(node)


def _delete(tree: "AvlTree", node: Optional[_Node], key: Any) -> Optional[_Node]:
    if node is None:
        return None
    if key < node.key:
        node.left = _delete(tree, node.left, key)
    elif key > node.key:
        node.right = _delete(tree, node.right, key)
    else:
        if node.left is None:
            tree._size -= 1
            return node.right
        if node.right is None:
            tree._size -= 1
            return node.left
        # Two children: take the in-order successor's entry and remove
        # the successor node, which counts the removal.
        successor = node.right
        while successor.left is not None:
            successor = successor.left
        node.key = successor.key
        node.value = successor.value
        node.right = _delete(tree, node.right, successor.key)
    return _rebalance(node)


class AvlTree(Generic[K, V]):
    """An ordered map with O(log n) insert/delete/search/floor/ceiling."""

    def __init__(self) -> None:
        self._root: Optional[_Node[K, V]] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: K) -> bool:
        return self._find(key) is not None

    def __iter__(self) -> Iterator[K]:
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------------
    def insert(self, key: K, value: V) -> None:
        """Insert ``key`` -> ``value``; replaces the value if key exists."""
        self._root = _insert(self, self._root, key, value)

    def delete(self, key: K) -> bool:
        """Remove ``key``; returns True if it was present."""
        size = self._size
        self._root = _delete(self, self._root, key)
        return self._size < size

    def get(self, key: K, default: Any = None) -> Any:
        node = self._find(key)
        return node.value if node is not None else default

    def _find(self, key: K) -> Optional[_Node[K, V]]:
        node = self._root
        while node is not None:
            if key < node.key:
                node = node.left
            elif key > node.key:
                node = node.right
            else:
                return node
        return None

    # ------------------------------------------------------------------
    def floor(self, key: K) -> Optional[Tuple[K, V]]:
        """Greatest (key', value) with key' <= key, or None."""
        node = self._root
        best: Optional[_Node[K, V]] = None
        while node is not None:
            if node.key == key:
                return (node.key, node.value)
            if node.key < key:
                best = node
                node = node.right
            else:
                node = node.left
        return (best.key, best.value) if best is not None else None

    def ceiling(self, key: K) -> Optional[Tuple[K, V]]:
        """Smallest (key', value) with key' >= key, or None."""
        node = self._root
        best: Optional[_Node[K, V]] = None
        while node is not None:
            if node.key == key:
                return (node.key, node.value)
            if node.key > key:
                best = node
                node = node.left
            else:
                node = node.right
        return (best.key, best.value) if best is not None else None

    def min_item(self) -> Optional[Tuple[K, V]]:
        node = self._root
        if node is None:
            return None
        while node.left is not None:
            node = node.left
        return (node.key, node.value)

    def max_item(self) -> Optional[Tuple[K, V]]:
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            node = node.right
        return (node.key, node.value)

    def items(self) -> Iterator[Tuple[K, V]]:
        """In-order traversal (ascending keys), iterative to bound stack use."""
        stack: list[_Node[K, V]] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield (node.key, node.value)
            node = node.right

    def items_from(self, key: K) -> Iterator[Tuple[K, V]]:
        """In-order traversal of all entries with key >= ``key``."""
        stack: list[_Node[K, V]] = []
        node = self._root
        while node is not None:
            if node.key >= key:
                stack.append(node)
                node = node.left
            else:
                node = node.right
        while stack:
            node = stack.pop()
            yield (node.key, node.value)
            node = node.right
            while node is not None:
                stack.append(node)
                node = node.left

    def height(self) -> int:
        return _height(self._root)

    def check_invariants(self) -> None:
        """Assert AVL balance and BST ordering (used by property tests)."""

        def _check(node: Optional[_Node[K, V]]) -> int:
            if node is None:
                return 0
            left = _check(node.left)
            right = _check(node.right)
            assert abs(left - right) <= 1, "AVL balance violated"
            assert node.height == 1 + max(left, right), "stale height"
            if node.left is not None:
                assert node.left.key < node.key, "BST order violated"
            if node.right is not None:
                assert node.right.key > node.key, "BST order violated"
            return node.height

        _check(self._root)
