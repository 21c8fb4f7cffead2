package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable

/** Exact in-memory build-up phase.
  *
  * This is (a) the in-memory twin the Spark DP is checked against
  * bit-for-bit (both run the same kernel), (b) the engine behind the local
  * Motivo/CC count tables and samplers used for the micro-benchmarks of
  * §3, and (c) the paper's own device: Motivo ships an in-memory build-up
  * too (it uses it to compute σ_ij, §3.3).
  *
  * `tables(h)(v)` holds c(T_C, v), the number of colorful non-induced
  * copies of T_C rooted at v (Eq. 1), per colored-treelet code. Level h is
  * the neighbor sums S_{h−1}(v) = Σ_{u~v} c(·, u) followed by the Eq. (1)
  * kernel of [[CountTable]], the same two steps as [[BuildUp]]. At h = k
  * only vertices of color 0 are populated when `zeroRoot` is on (§3.2).
  */
object LocalEngine {

  type Level = Array[CountTable]

  final case class Result(g: LocalGraph, colors: Array[Int], k: Int, zeroRoot: Boolean,
                          tables: Array[Level]) {

    /** Total number of colorful k-treelet copies (0-rooted ⇒ once each). */
    lazy val totalTreelets: BigInt = tables(k).iterator.map(_.total).foldLeft(BigInt(0))(_ + _)

    /** r_j of AGS: colorful copies per free k-treelet shape. */
    lazy val totalsByShape: Map[Int, BigInt] =
      tables(k).toSeq.flatMap(_.byFreeShape).groupMapReduce(_._1)(_._2)(_ + _)

    def count(h: Int, v: Int, ct: Long): BigInt = tables(h)(v).toMap.getOrElse(ct, BigInt(0))
  }

  /** Run the DP.
    *
    * @throws IllegalArgumentException unless 2 ≤ k ≤ 8 and every
    *         `colors(v)` is in [0, k)
    */
  def buildUp(g: LocalGraph, colors: Array[Int], k: Int, zeroRoot: Boolean = true): Result = {
    require(k >= 2 && k <= 8, s"k=$k out of [2,8]")
    require(colors.length == g.n, s"${colors.length} colors for ${g.n} vertices")
    for (v <- 0 until g.n)
      require(colors(v) >= 0 && colors(v) < k, s"color ${colors(v)} of vertex $v outside [0, $k)")
    val tables = new Array[Level](k + 1)
    val sums = new Array[Level](k) // sums(h)(v) = S_h(v)
    tables(1) = Array.tabulate(g.n)(v => CountTable.singleton(colors(v)))
    for (h <- 2 to k) {
      val lower = tables(h - 1)
      def isRoot(v: Int) = !(zeroRoot && h == k) || colors(v) == 0
      sums(h - 1) = Array.tabulate(g.n) { v =>
        if (isRoot(v)) CountTable.sum(g.neighbors(v).map(lower)) else CountTable.Empty
      }
      tables(h) = Array.tabulate(g.n) { v =>
        if (isRoot(v)) CountTable.eq1(h, tables(_)(v), sums(_)(v)) else CountTable.Empty
      }
    }
    Result(g, colors, k, zeroRoot, tables)
  }

  /** Exact number of colorful *graphlet* copies per canonical code, by
    * enumerating connected induced k-subgraphs (ESU) and filtering for
    * distinct colors. Ground truth for the sampling estimators; only
    * feasible on small graphs.
    */
  def exactColorfulGraphletCounts(g: LocalGraph, colors: Array[Int], k: Int): Map[Long, BigInt] = {
    val acc = mutable.HashMap.empty[Long, BigInt]
    ExactCount.foreachConnectedSubset(g, k) { verts =>
      val mask = verts.foldLeft(0)((m, v) => m | (1 << colors(v)))
      if (Integer.bitCount(mask) == k) {
        val code = repro.graphlet.Graphlet.canonical(LocalGraph.inducedAdj(g, verts))
        acc(code) = acc.getOrElse(code, BigInt(0)) + 1
      }
    }
    acc.toMap
  }
}
