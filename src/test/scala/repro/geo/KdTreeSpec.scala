package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.Points

/** Structural and query-contract tests for the KD-tree. The canonical-query
  * sandwich property is the load-bearing invariant of the whole MFD
  * reproduction: `B(q,r) ⊆ ∪ canonical boxes ⊆ B(q,(1+ε)r)`, with the
  * canonical point sets pairwise disjoint and no canonical node an ancestor
  * of another (that is what makes node-sum + root-path accumulation compute
  * h^T A exactly, whether per point or by the whole-tree passes).
  */
class KdTreeSpec extends AnyFunSuite {

  private def ancestors(t: KdTree, u: Int): Set[Int] = {
    var v = u
    val b = Set.newBuilder[Int]
    while (v != -1) { b += v; v = t.parent(v) }
    b.result()
  }

  for (seed <- 1 to 8; d <- Seq(2, 3, 6)) {
    val n = 40 + seed * 10
    val pts = TestUtil.randomPoints(n, d, 3, seed * 31L)
    lazy val tree = KdTree.build(pts)

    test(s"build invariants n=$n d=$d seed=$seed") {
      assert(tree.nodeCount == 2 * n - 1) // binary tree, one point per leaf
      assert(tree.parent(tree.root) == -1)
      // Every point has a leaf and the leaf stores it.
      pts.indices.foreach { i =>
        val leaf = tree.leafOf(i)
        assert(tree.isLeaf(leaf) && tree.leafPoint(leaf) == i)
      }
      // Bounding boxes nest, and a leaf's box is its point.
      (0 until tree.nodeCount).foreach { u =>
        if (!tree.isLeaf(u)) {
          for (c <- Seq(tree.left(u), tree.right(u)); j <- 0 until d) {
            assert(tree.boxLo(c * d + j) >= tree.boxLo(u * d + j) - 1e-12)
            assert(tree.boxHi(c * d + j) <= tree.boxHi(u * d + j) + 1e-12)
          }
        } else {
          val x = pts(tree.leafPoint(u)).x
          for (j <- 0 until d) assert(tree.boxLo(u * d + j) == x(j) && tree.boxHi(u * d + j) == x(j))
        }
      }
      // Children partition the parent's points.
      (0 until tree.nodeCount).foreach { u =>
        if (!tree.isLeaf(u)) {
          val l = tree.pointsUnder(tree.left(u)).toSet
          val r = tree.pointsUnder(tree.right(u)).toSet
          assert(l.intersect(r).isEmpty)
          assert(l.union(r) == tree.pointsUnder(u).toSet)
        }
      }
    }

    test(s"canonical query sandwich n=$n d=$d seed=$seed") {
      val rnd = new java.util.Random(seed * 77L)
      for (_ <- 1 to 20) {
        val q = pts(rnd.nextInt(n)).x
        val r = rnd.nextDouble() * 60.0 + 1.0
        val eps = Seq(0.1, 0.5, 1.0)(rnd.nextInt(3))
        val nodes = tree.canonicalNodes(q, r, eps)
        val covered = nodes.flatMap(tree.pointsUnder)
        // Disjoint: no point covered twice.
        assert(covered.length == covered.distinct.length)
        // No canonical node is an ancestor of another.
        val nodeSet = nodes.toSet
        nodes.foreach { u =>
          assert((ancestors(tree, u) - u).intersect(nodeSet).isEmpty)
        }
        val cset = covered.toSet
        pts.indices.foreach { i =>
          val dist = Points.dist(pts(i).x, q)
          if (dist <= r) assert(cset.contains(i), s"point within r=$r at $dist missing")
          if (cset.contains(i)) assert(dist <= (1 + eps) * r + 1e-9, s"point at $dist beyond (1+eps)r")
        }
      }
    }

    test(s"node-sum/root-path identity (Oracle coefficients) n=$n d=$d seed=$seed") {
      val rnd = new java.util.Random(seed * 13L)
      val h = Array.fill(n)(rnd.nextDouble())
      val r = 20.0
      val eps = 0.5
      val canon = Array.tabulate(n)(i => tree.canonicalNodes(pts(i).x, r, eps))
      // Node sums as in Algorithm 2.
      val us = new Array[Double](tree.nodeCount)
      for (l <- 0 until n; u <- canon(l)) us(u) += h(l)
      // Brute-force membership S^eps_l = points under canonical nodes of l.
      val members = canon.map(_.flatMap(tree.pointsUnder).toSet)
      // Top-down pass: the root-path sum of every leaf in one scan.
      val prefix = new Array[Double](tree.nodeCount)
      tree.rootPathSums(us, prefix)
      pts.indices.foreach { i =>
        val viaTree = tree.pathToRoot(i).map(us).sum
        val brute = (0 until n).collect { case l if members(l).contains(i) => h(l) }.sum
        assert(math.abs(viaTree - brute) < 1e-9, s"coefficient mismatch at $i")
        assert(math.abs(prefix(tree.leafOf(i)) - viaTree) < 1e-9, s"prefix pass mismatch at $i")
      }
      // Bottom-up pass (Update): selected points under each node.
      val selected = Array.fill(n)(if (rnd.nextBoolean()) 1.0 else 0.0)
      val counts = new Array[Double](tree.nodeCount)
      tree.subtreeSums(selected, counts)
      (0 until tree.nodeCount).foreach { u =>
        assert(counts(u) == tree.pointsUnder(u).count(selected(_) == 1.0), s"subtree count mismatch at node $u")
      }
    }
  }

  test("single point tree") {
    val pts = TestUtil.randomPoints(1, 2, 1, 5L)
    val t = KdTree.build(pts)
    assert(t.nodeCount == 1 && t.isLeaf(t.root))
    assert(t.canonicalNodes(pts(0).x, 1.0, 0.5).toSeq == Seq(t.root))
    assert(t.canonicalNodes(Array(1000.0, 1000.0), 1.0, 0.5).isEmpty)
  }

  test("duplicate points are all retained") {
    val pts = Array.tabulate(10)(i => repro.core.LabeledPoint(i.toLong, 0, Array(1.0, 2.0)))
    val t = KdTree.build(pts)
    assert(t.nodeCount == 19)
    val nodes = t.canonicalNodes(Array(1.0, 2.0), 0.5, 0.5)
    assert(nodes.flatMap(t.pointsUnder).toSet == (0 until 10).toSet)
  }

  test("zero radius query returns only coincident points") {
    val pts = TestUtil.randomPoints(50, 2, 2, 9L)
    val t = KdTree.build(pts)
    val nodes = t.canonicalNodes(pts(7).x, 0.0, 0.5)
    val covered = nodes.flatMap(t.pointsUnder).toSet
    assert(covered.contains(7))
    covered.foreach(i => assert(Points.dist(pts(i).x, pts(7).x) == 0.0))
  }
}
